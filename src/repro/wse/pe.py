"""Processing element: private memory, DSD datapath, its own counters.

Each PE owns a :class:`~repro.wse.memory.Scratchpad` (its private local
memory) and a :class:`~repro.wse.dsd.DsdEngine` (its vector datapath with
instruction accounting).  In the CSL programming model receiving a
wavelet of a color activates the task bound to that color; every program
here runs the same code on every PE, so the tasks are per color, held
once by the fabric (:meth:`~repro.wse.fabric.Fabric.bind_all`), and the
runtime runs them with the receiving PE as their argument.  What a
program keeps per PE lives in its PE-major memory block and its
exchange's tables, indexed by the PE's :attr:`~ProcessingElement.row`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.wse.dsd import DsdEngine
from repro.wse.memory import Scratchpad

__all__ = ["ProcessingElement"]


@dataclass(slots=True)
class ProcessingElement:
    """One PE of the fabric.

    Attributes
    ----------
    coord:
        Fabric coordinate ``(x, y)``.
    memory:
        Private scratchpad (48 KB on WSE-2).
    dsd:
        Vector datapath with instruction/traffic/cycle accounting.
    busy_until:
        Cycle time until which the PE's datapath is occupied; the runtime
        serializes task executions behind it (routers and links operate
        independently of the PE, Sec. 5.3.2).
    row:
        The PE's row in the PE-major memory block of the program it runs
        (its index in ``ColumnExchange.pes``); ``-1`` while it runs none,
        e.g. in a bypassed column.  A program keeps its per-PE data as
        rows of block columns and reads them by this index.
    index:
        The PE's physical row-major index on its fabric, ``y * width +
        x`` (``-1`` off a fabric): how the event runtime addresses it
        and its router.
    """

    coord: tuple[int, int]
    memory: Scratchpad = field(default_factory=Scratchpad)
    dsd: DsdEngine = field(default_factory=DsdEngine)
    busy_until: float = 0.0
    row: int = -1
    index: int = -1
    #: Start time / cycle counter of the task currently executing on this
    #: PE (set by the runtime before each task): a send the task issues
    #: enters the fabric at ``exec_start + (dsd.cycles - cycles_at_start)``,
    #: after the compute it has booked so far.
    exec_start: float | None = None
    cycles_at_start: float = 0.0
    messages_received: int = 0
    messages_sent: int = 0
    words_received: int = 0
    words_sent: int = 0

    @property
    def x(self) -> int:
        return self.coord[0]

    @property
    def y(self) -> int:
        return self.coord[1]
