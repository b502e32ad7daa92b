"""PE scratchpad memory: a bump allocator with capacity accounting.

Every PE owns a small private local memory (48 KB on WSE-2) holding code,
cell data, face data, and communication buffers (Sec. 5.3.1).  "Reducing
the memory consumption on each PE is crucial to fit the largest possible
problem", and the paper hand-crafts buffer reuse "akin to register
allocation optimization".

:class:`Scratchpad` provides named allocations backed by NumPy arrays,
tracks the high-water mark, raises on overflow, and supports *aliasing* —
deliberately overlaying a new logical buffer on an existing allocation,
the reuse mechanism quantified by the ablation benchmark.

The paper gives every PE the *same* memory map (Sec. 5.1), so a program
plans its layout once, on one probe scratchpad, and installs the
resulting :class:`MemoryPlan` on the whole PE rectangle
(:meth:`repro.wse.fabric.Fabric.install_memory`): one PE-major block
backs every PE, each scratchpad takes over the shared immutable plan and
its own row of the block (:meth:`Scratchpad.adopt`), and builds its
:class:`Allocation` records only when somebody asks for them.  All
capacity arithmetic, error texts, offsets and ``high_water`` are the
probe's — they are the same numbers on every PE and need no per-PE work.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

import numpy as np

__all__ = [
    "Scratchpad",
    "Allocation",
    "MemoryPlan",
    "PEMemoryError",
    "column_plan",
    "WSE2_PE_MEMORY_BYTES",
]

#: Private local memory per WSE-2 processing element.
WSE2_PE_MEMORY_BYTES = 48 * 1024


class PEMemoryError(MemoryError):
    """Raised when an allocation exceeds the PE's local memory."""


@dataclass(frozen=True)
class Allocation:
    """One named region of a PE scratchpad."""

    name: str
    offset: int
    nbytes: int
    array: np.ndarray

    @property
    def end(self) -> int:
        """One past the last byte of the region."""
        return self.offset + self.nbytes


#: Rows of a plan's block start on multiples of this many bytes, so the
#: columns of every PE are aligned for any NumPy scalar type.
_ROW_ALIGN = 16


@dataclass(frozen=True)
class MemoryPlan:
    """The allocation table of one scratchpad, detached from its storage.

    Taken off a probe with :meth:`Scratchpad.plan`; any number of
    scratchpads of the same capacity can :meth:`Scratchpad.adopt` it,
    each over its own row of one :meth:`block`.
    """

    capacity: int
    reserved: int
    used: int
    high_water: int
    #: ``(name, offset, nbytes, shape, dtype)`` in allocation order;
    #: aliases repeat the offset of the allocation they overlay.
    records: tuple[tuple[str, int, int, tuple[int, ...], np.dtype], ...]

    @property
    def row_bytes(self) -> int:
        """Bytes of one PE's row: everything above the reserved region,
        up to the high-water mark, rounded up to the row alignment."""
        return -(-(self.high_water - self.reserved) // _ROW_ALIGN) * _ROW_ALIGN

    def block(self, n_pes: int) -> np.ndarray:
        """Zeroed PE-major storage for *n_pes* scratchpads: C-contiguous
        ``(n_pes, row_bytes)`` bytes, so each PE's columns stay adjacent
        and a PE's ``(2, nz)`` train flattens without a copy."""
        return np.zeros((n_pes, self.row_bytes), dtype=np.uint8)

    def columns(self, block: np.ndarray) -> dict[str, np.ndarray]:
        """``name -> (n_pes, *shape)`` typed views over *block*, one per
        allocation: entry ``i`` is PE ``i``'s array of that name."""
        n = block.shape[0]
        return {
            name: block[:, offset - self.reserved : offset - self.reserved + nbytes]
            .view(dtype)
            .reshape(n, *shape)
            for name, offset, nbytes, shape, dtype in self.records
        }


def column_plan(names, nz: int, dtype) -> MemoryPlan:
    """One ``nz``-long column per name, in order, planned on a probe of a
    default PE's scratchpad — the memory map of a program whose every PE
    holds the same columns; over budget it raises that PE's own error."""
    probe = Scratchpad()
    for name in names:
        probe.alloc_array(name, nz, dtype)
    return probe.plan()


class Scratchpad:
    """Named bump allocator over a fixed-size private memory.

    Parameters
    ----------
    capacity:
        Usable bytes (default: the full 48 KB of a WSE-2 PE).
    reserved:
        Bytes set aside for code/runtime (reduces usable capacity), the
        "instructions" the paper notes must share PE memory (Sec. 5.3.1).
    """

    def __init__(
        self,
        capacity: int = WSE2_PE_MEMORY_BYTES,
        *,
        reserved: int = 0,
    ) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if not 0 <= reserved < capacity:
            raise ValueError("reserved must lie in [0, capacity)")
        self.capacity = int(capacity)
        self.reserved = int(reserved)
        self._cursor = self.reserved
        #: name -> Allocation; None while an adopted plan has not been
        #: expanded into records yet (see :meth:`_table`).
        self._allocations: dict[str, Allocation] | None = {}
        self._plan: MemoryPlan | None = None
        self._row: np.ndarray | None = None
        self.high_water = self.reserved

    # ------------------------------------------------------------------ #
    @property
    def used(self) -> int:
        """Bytes currently allocated (including the reserved region)."""
        return self._cursor

    @property
    def free(self) -> int:
        """Bytes still available."""
        return self.capacity - self._cursor

    def alloc_array(self, name: str, shape, dtype=np.float32) -> np.ndarray:
        """Allocate a named zero-initialized array in PE memory.

        Raises
        ------
        PEMemoryError
            When the region does not fit; the message reports the
            shortfall, mirroring an SDK out-of-memory compile error.
        ValueError
            When *name* is already allocated.
        """
        table = self._table()
        if name in table:
            raise ValueError(f"allocation {name!r} already exists")
        # sized before it is allocated: a request the PE cannot hold must
        # not reach the host allocator first
        dims = (shape,) if isinstance(shape, (int, np.integer)) else tuple(shape)
        nbytes = prod(int(d) for d in dims) * np.dtype(dtype).itemsize
        if self._cursor + nbytes > self.capacity:
            raise PEMemoryError(
                f"PE memory overflow allocating {name!r}: need {nbytes} B, "
                f"have {self.free} B of {self.capacity} B"
            )
        arr = np.zeros(shape, dtype=dtype)
        table[name] = Allocation(name, self._cursor, nbytes, arr)
        self._cursor += nbytes
        self.high_water = max(self.high_water, self._cursor)
        return arr

    def alias(self, name: str, existing: str) -> np.ndarray:
        """Overlay logical buffer *name* on the allocation of *existing*.

        This is the paper's hand-crafted buffer reuse (Sec. 5.3.1): the new
        buffer consumes no additional memory and shares storage with the
        existing one — callers take responsibility for the lifetime
        ("overwriting / reusing data buffers eliminates the need for data
        replication").
        """
        table = self._table()
        if name in table:
            raise ValueError(f"allocation {name!r} already exists")
        base = self.get(existing)
        table[name] = Allocation(name, base.offset, base.nbytes, base.array)
        return base.array

    def free_allocation(self, name: str) -> None:
        """Release a named allocation.

        Only the *most recent distinct region* can actually return bytes
        to the pool (bump allocation); earlier frees merely drop the name.
        Aliases never return bytes.
        """
        table = self._table()
        alloc = table.pop(name, None)
        if alloc is None:
            raise KeyError(f"allocation {name!r} not found")
        still_used = any(a.offset == alloc.offset for a in table.values())
        if not still_used and alloc.end == self._cursor:
            self._cursor = alloc.offset

    def get(self, name: str) -> Allocation:
        """Look up a named allocation."""
        try:
            return self._table()[name]
        except KeyError:
            raise KeyError(f"allocation {name!r} not found") from None

    def array(self, name: str) -> np.ndarray:
        """The backing array of a named allocation."""
        return self.get(name).array

    def names(self) -> list[str]:
        """All allocation names, in allocation order."""
        return list(self._table())

    def overlap_pairs(self) -> list[tuple[str, str]]:
        """Pairs of distinct allocations whose byte ranges overlap.

        Non-aliased allocations never overlap (verified by property
        tests); aliases appear here by construction.
        """
        allocs = list(self._table().values())
        out = []
        for i, a in enumerate(allocs):
            for b in allocs[i + 1 :]:
                if a.offset < b.end and b.offset < a.end:
                    out.append((a.name, b.name))
        return out

    # ------------------------------------------------------------------ #
    # Shared plans (one memory map for a whole PE rectangle)
    # ------------------------------------------------------------------ #
    def plan(self) -> MemoryPlan:
        """The current allocation table as an immutable, storage-free
        :class:`MemoryPlan`."""
        return MemoryPlan(
            self.capacity,
            self.reserved,
            self._cursor,
            self.high_water,
            tuple(
                (a.name, a.offset, a.nbytes, a.array.shape, a.array.dtype)
                for a in self._table().values()
            ),
        )

    def adopt(self, plan: MemoryPlan, row: np.ndarray) -> None:
        """Take over *plan* with *row* (``plan.row_bytes`` contiguous
        bytes) as storage.

        The plan is shared, never copied: the scratchpad's own
        :class:`Allocation` table is built from it on first use, and only
        that private table is changed by a later :meth:`alloc_array`,
        :meth:`alias` or :meth:`free_allocation` (copy-on-write).
        """
        if self._cursor != self.reserved or self.high_water != self.reserved:
            raise ValueError("only an unused scratchpad can adopt a plan")
        if (plan.capacity, plan.reserved) != (self.capacity, self.reserved):
            raise ValueError(
                f"plan was made for {plan.capacity} B with {plan.reserved} B "
                f"reserved, this scratchpad has {self.capacity} B with "
                f"{self.reserved} B reserved"
            )
        if row.shape != (plan.row_bytes,) or row.dtype != np.uint8:
            raise ValueError(
                f"a row of this plan is {plan.row_bytes} bytes (uint8), got "
                f"shape {row.shape} of {row.dtype}"
            )
        self._plan, self._row, self._allocations = plan, row, None
        self._cursor, self.high_water = plan.used, plan.high_water

    def _table(self) -> dict[str, Allocation]:
        """The private name -> Allocation table, expanding an adopted
        plan into views over this PE's row the first time it is needed."""
        table = self._allocations
        if table is None:
            table = self._allocations = {}
            row, base = self._row, self.reserved
            arrays: dict[tuple, np.ndarray] = {}
            for name, offset, nbytes, shape, dtype in self._plan.records:
                # an alias is the same region again: hand out the same array
                key = (offset, nbytes, shape, dtype)
                arr = arrays.get(key)
                if arr is None:
                    arr = arrays[key] = (
                        row[offset - base : offset - base + nbytes]
                        .view(dtype)
                        .reshape(shape)
                    )
                table[name] = Allocation(name, offset, nbytes, arr)
        return table
