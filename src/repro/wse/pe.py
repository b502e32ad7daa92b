"""Processing element: private memory, DSD datapath, its own counters.

Each PE has a :class:`~repro.wse.memory.Scratchpad` (its private local
memory) and a :class:`~repro.wse.dsd.DsdEngine` (its vector datapath with
instruction accounting).  In the CSL programming model receiving a
wavelet of a color activates the task bound to that color; every program
here runs the same code on every PE, so the tasks are per color, held
once by the fabric (:meth:`~repro.wse.fabric.Fabric.bind_all`), and the
runtime runs them with the receiving PE as their argument.  What a
program keeps per PE lives in its PE-major memory block and its
exchange's tables, indexed by the PE's :attr:`~ProcessingElement.row`.

A fabric's PE holds no scratchpad until tooling asks for
:attr:`~ProcessingElement.memory`: the fabric builds it then, over the
PE's row of the block :meth:`~repro.wse.fabric.Fabric.install_memory`
gave it (or empty, for a PE no plan covers).
"""

from __future__ import annotations

from repro.wse.dsd import DsdEngine
from repro.wse.memory import Scratchpad

__all__ = ["ProcessingElement"]


class ProcessingElement:
    """One PE of the fabric.

    Attributes
    ----------
    coord:
        Fabric coordinate ``(x, y)``.
    memory:
        Private scratchpad (48 KB on WSE-2), built on first access.
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
    exec_start, cycles_at_start:
        Start time / cycle counter of the task currently executing on
        this PE (set by the runtime before each task): a send the task
        issues enters the fabric at ``exec_start + (dsd.cycles -
        cycles_at_start)``, after the compute it has booked so far.
    """

    __slots__ = (
        "coord", "dsd", "busy_until", "row", "index", "exec_start",
        "cycles_at_start", "messages_received", "messages_sent",
        "words_received", "words_sent", "_memory", "_fabric",
    )

    def __init__(
        self,
        coord: tuple[int, int],
        dsd: DsdEngine | None = None,
        *,
        index: int = -1,
        memory: Scratchpad | None = None,
        fabric=None,
    ) -> None:
        self.coord = coord
        self.dsd = DsdEngine() if dsd is None else dsd
        self.index = index
        self.row = -1
        self.busy_until = 0.0
        self.exec_start: float | None = None
        self.cycles_at_start = 0.0
        self.messages_received = self.messages_sent = 0
        self.words_received = self.words_sent = 0
        self._memory = memory
        self._fabric = fabric

    @classmethod
    def grid(cls, fabric, *, vectorized: bool = True) -> list["ProcessingElement"]:
        """Every PE of *fabric*, row-major by index, each holding the
        state :meth:`__init__` gives it — built without a constructor
        call per PE (its `DsdEngine` is the one per-PE call)."""
        new, width, pes = cls.__new__, fabric.width, []
        for index in range(width * fabric.height):
            pe = new(cls)
            pe.coord = (index % width, index // width)
            pe.dsd = DsdEngine(vectorized=vectorized)
            pe.index, pe.row = index, -1
            pe.busy_until = pe.cycles_at_start = 0.0
            pe.exec_start = None
            pe.messages_received = pe.messages_sent = 0
            pe.words_received = pe.words_sent = 0
            pe._memory, pe._fabric = None, fabric
            pes.append(pe)
        return pes

    def __repr__(self) -> str:
        return f"ProcessingElement(coord={self.coord}, index={self.index})"

    @property
    def memory(self) -> Scratchpad:
        """The PE's scratchpad: its fabric's view of its block row, or
        an empty one of the fabric's capacity (built once, on first
        access)."""
        memory = self._memory
        if memory is None:
            fabric = self._fabric
            memory = self._memory = (
                Scratchpad() if fabric is None else fabric.scratchpad(self.index)
            )
        return memory

    @property
    def x(self) -> int:
        return self.coord[0]

    @property
    def y(self) -> int:
        return self.coord[1]
