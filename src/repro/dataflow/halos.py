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

Every PE has the same layout, so a program allocates it once —
:meth:`PEColumnLayout.build` on a probe scratchpad — and wires each PE's
views of the fabric-wide block with :meth:`PEColumnLayout.bind`
(DESIGN.md Sec. 19); ``build`` itself is "allocate, then bind".
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.stencil import XY_CONNECTIONS, Connection
from repro.dataflow.flux_pe import FluxScratch
from repro.wse.memory import PEMemoryError, Scratchpad

__all__ = [
    "PEColumnLayout",
    "TRANS_NAMES",
    "layout_words_per_cell",
    "max_nz_for_memory",
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


def _flat_view(train: np.ndarray) -> np.ndarray:
    """The ``(2 * nz,)`` payload view of a ``(2, nz)`` train."""
    if not train.flags.c_contiguous:  # reshape would silently copy
        raise ValueError("a (p, rho) train must be contiguous in PE memory")
    return train.reshape(-1)


@dataclass
class PEColumnLayout:
    """All named allocations of one PE running the flux program.

    Attributes
    ----------
    pressure, density, elevation, residual:
        The PE's own cell-column state (length ``nz``).
    trans:
        Transmissibility column per connection (10 entries).
    scratch:
        The four shared flux scratch columns.
    """

    nz: int
    reuse_buffers: bool
    pressure: np.ndarray
    density: np.ndarray
    elevation: np.ndarray
    residual: np.ndarray
    trans: dict[Connection, np.ndarray]
    scratch: FluxScratch
    _recv: dict[Connection, np.ndarray]
    _send: np.ndarray
    #: Pre-flattened views of the receive windows / send train — the
    #: runtime hands whole trains around as 1D payloads, and creating
    #: the reshape view per message is measurable on the hot path.
    _recv_flat: dict[Connection, np.ndarray]
    _send_flat: np.ndarray

    @classmethod
    def build(
        cls,
        memory: Scratchpad,
        nz: int,
        *,
        dtype=np.float32,
        reuse_buffers: bool = True,
    ) -> "PEColumnLayout":
        """Allocate the full layout in *memory*.

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
            for name in TRANS_NAMES.values():
                memory.alloc_array(name, nz, dtype)
            FluxScratch.allocate(memory, nz, dtype)
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
        return cls.bind(
            {name: memory.array(name) for name in memory.names()},
            reuse_buffers=reuse_buffers,
        )

    @classmethod
    def bind(
        cls, arrays: dict[str, np.ndarray], *, reuse_buffers: bool = True
    ) -> "PEColumnLayout":
        """The layout over *arrays* that already exist: ``name -> array``
        under the names and shapes :meth:`build` allocates.

        A program plans its memory once with :meth:`build` on a probe
        scratchpad and binds every PE's views of the fabric-wide block
        with this (no allocator work per PE).  The ``(2, nz)`` trains
        must be C-contiguous: their flattened forms are views, never
        copies — the send train aliases the live ``p``/``rho`` columns.
        """
        pr = arrays["p_rho"]
        if reuse_buffers:
            # one window serves all eight neighbours (Sec. 5.3.1)
            shared = arrays["recv_shared"]
            recv = dict.fromkeys(XY_CONNECTIONS, shared)
            recv_flat = dict.fromkeys(XY_CONNECTIONS, _flat_view(shared))
            send = pr  # zero-copy send view (p, rho) adjacent
        else:
            recv = {conn: arrays[name] for conn, name in _RECV_NAMES.items()}
            recv_flat = {conn: _flat_view(buf) for conn, buf in recv.items()}
            send = arrays["send_staging"]
        return cls(
            nz=pr.shape[1],
            reuse_buffers=reuse_buffers,
            pressure=pr[0],
            density=pr[1],
            elevation=arrays["z"],
            residual=arrays["residual"],
            trans={conn: arrays[name] for conn, name in TRANS_NAMES.items()},
            scratch=FluxScratch(*map(arrays.__getitem__, FluxScratch.NAMES)),
            _recv=recv,
            _send=send,
            _recv_flat=recv_flat,
            _send_flat=_flat_view(send),
        )

    # ------------------------------------------------------------------ #
    def recv_buffer(self, conn: Connection) -> np.ndarray:
        """(2, nz) receive window for the neighbour along *conn*."""
        return self._recv[conn]

    def recv_flat(self, conn: Connection) -> np.ndarray:
        """Flattened (2*nz,) view of the same receive window."""
        return self._recv_flat[conn]

    def halo_args(self) -> dict[Connection, tuple]:
        """Per X-Y neighbour, what its receive task touches: ``(flat
        receive window, p_L, rho_L, transmissibility column)``."""
        trans = self.trans
        return {
            conn: (self._recv_flat[conn], buf[0], buf[1], trans[conn])
            for conn, buf in self._recv.items()
        }

    def send_train(self, engine=None) -> np.ndarray:
        """The outgoing ``(p, rho)`` train of this PE.

        With buffer reuse the train is the live ``(p, rho)`` storage
        itself (no copy); otherwise the state is staged into the send
        buffer (two local moves, costed via the engine when given).
        """
        if self.reuse_buffers:
            return self._send
        if engine is not None:
            engine.fmovs(self._send[0], self.pressure)
            engine.fmovs(self._send[1], self.density)
        else:
            self._send[0] = self.pressure
            self._send[1] = self.density
        return self._send

    def send_train_flat(self, engine=None) -> np.ndarray:
        """:meth:`send_train` as the flattened (2*nz,) payload view."""
        self.send_train(engine)
        return self._send_flat
