"""Per-PE memory layout for the flux program, with buffer-reuse planning.

Each PE stores (Sec. 5.1): "its current residual, pressure, and gravity
coefficients, as well as 10 transmissibilities for the fluxes between the
cell and its neighbors", plus "space to receive the pressure and gravity
coefficients from all eight neighboring cells".

The layout comes in two flavours, the knob of the Sec.-5.3.1 ablation:

* ``reuse_buffers=True`` (the paper's hand-crafted optimization) — one
  shared ``(p, rho)`` receive buffer serves all eight neighbours (each
  arrival is consumed by its partial flux computation before the next is
  drained from the router queue), the send train is a zero-copy view over
  the adjacent ``p``/``rho`` allocations, and four scratch columns are
  shared by all ten face computations.
* ``reuse_buffers=False`` — a dedicated receive buffer per neighbour and
  a dedicated send staging buffer, the naive layout whose footprint caps
  the maximum ``Nz`` much earlier.

:func:`max_nz_for_memory` inverts the layout size to answer the paper's
"largest possible problem" question for a given PE memory.

Every PE has the same layout, so a program plans it once —
:func:`plan_pe_memory` on a probe scratchpad — installs it over one
PE-major block, and takes each PE's trains as rows of that block with
:func:`bind_trains` (DESIGN.md Sec. 19).
"""

from __future__ import annotations

import numpy as np

from repro.core.kernels import FluxScratch
from repro.core.stencil import XY_CONNECTIONS, Connection
from repro.wse.memory import PEMemoryError, Scratchpad

__all__ = [
    "TRANS_NAMES",
    "bind_trains",
    "layout_words_per_cell",
    "max_nz_for_memory",
    "plan_pe_memory",
    "train_names",
]


def layout_words_per_cell(*, reuse_buffers: bool) -> int:
    """Scratchpad words required per cell of the Z column.

    Shared layout: p + rho + z + residual (4) + 10 transmissibilities.
    With reuse: one 2-column receive window + 4 scratch -> 20 words/cell.
    Without: 8 x 2 receive buffers + 2 send staging + 4 scratch -> 36.
    """
    base = 4 + 10
    if reuse_buffers:
        return base + 2 + 4
    return base + 16 + 2 + 4


def max_nz_for_memory(
    capacity_bytes: int,
    *,
    reserved_bytes: int = 2048,
    word_bytes: int = 4,
    reuse_buffers: bool = True,
) -> int:
    """Largest Z column fitting a PE memory under the given layout."""
    usable = capacity_bytes - reserved_bytes
    if usable <= 0:
        return 0
    return usable // (word_bytes * layout_words_per_cell(reuse_buffers=reuse_buffers))


#: Scratchpad names of the per-connection columns (``Enum.name`` is a
#: descriptor call; these are read once per PE per connection).
TRANS_NAMES = {conn: f"trans_{conn.name}" for conn in Connection}
_RECV_NAMES = {conn: f"recv_{conn.name}" for conn in XY_CONNECTIONS}


def train_names(*, reuse_buffers: bool) -> tuple[str, dict[Connection, str]]:
    """Where the ``(2, nz)`` trains live: the name of the outgoing train
    and, per X-Y connection, the name of its receive window."""
    if reuse_buffers:
        # the live (p, rho) goes out; one window serves all eight (Sec. 5.3.1)
        return "p_rho", dict.fromkeys(XY_CONNECTIONS, "recv_shared")
    return "send_staging", _RECV_NAMES


def plan_pe_memory(
    memory: Scratchpad,
    nz: int,
    *,
    dtype=np.float32,
    reuse_buffers: bool = True,
) -> None:
    """Allocate the flux program's memory map in *memory*.

    Raises
    ------
    PEMemoryError
        When ``nz`` is too large for the PE memory under this layout.
    """
    try:
        # p and rho adjacent: the outgoing (p, rho) train is a view
        memory.alloc_array("p_rho", (2, nz), dtype)
        memory.alloc_array("z", nz, dtype)
        memory.alloc_array("residual", nz, dtype)
        for name in (*TRANS_NAMES.values(), *FluxScratch.NAMES):
            memory.alloc_array(name, nz, dtype)
        if reuse_buffers:
            memory.alloc_array("recv_shared", (2, nz), dtype)
        else:
            for name in _RECV_NAMES.values():
                memory.alloc_array(name, (2, nz), dtype)
            memory.alloc_array("send_staging", (2, nz), dtype)
    except PEMemoryError as err:
        raise PEMemoryError(
            f"nz={nz} does not fit this PE memory with "
            f"reuse_buffers={reuse_buffers}: {err}"
        ) from err


def bind_trains(
    columns: dict[str, np.ndarray], *, reuse_buffers: bool = True
) -> tuple[np.ndarray, dict[Connection, np.ndarray]]:
    """Every PE's outgoing train and receive windows, as payload rows.

    *columns* maps the names :func:`plan_pe_memory` allocates to their
    ``(n_pes, *shape)`` views of the PE-major block.  Returns the
    ``(n_pes, 2 * nz)`` rows of the outgoing train and, per X-Y
    connection, those of its window (one array for all eight with
    reuse); row ``i`` is PE ``i``'s train as the 1-D payload the runtime
    hands around.  The rows are views, never copies — with reuse the
    send row *is* the live ``p``/``rho`` — so a ``(2, nz)`` train that
    is not C-contiguous inside its PE row is refused.
    """
    send, recv = train_names(reuse_buffers=reuse_buffers)
    windows = {
        name: _payload_rows(columns[name]) for name in dict.fromkeys(recv.values())
    }
    sends = _payload_rows(columns[send])
    return sends, {conn: windows[name] for conn, name in recv.items()}


def _payload_rows(column: np.ndarray) -> np.ndarray:
    """The ``(n_pes, 2 * nz)`` view of a ``(n_pes, 2, nz)`` block column."""
    if not column[0].flags.c_contiguous:  # reshape would silently copy
        raise ValueError("a (p, rho) train must be contiguous in PE memory")
    return column.reshape(len(column), -1)
