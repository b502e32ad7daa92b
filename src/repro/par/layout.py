"""Deterministic shared-memory map for one SPMD rank grid.

Both the parent and every worker derive the identical
:class:`HaloLayout` from ``(mesh shape, px, py, dtype)``, so no offsets
ever travel between processes — only the arena's file descriptor
does.  The arena holds, in order:

* **two** global **pressure** fields, one per application parity — the
  parent writes application ``k``'s pressures into slot ``k % 2``,
  which lets it stage application ``k + 1`` while ``k`` is still in
  flight (depth-2 pipelining) without tearing the field a worker is
  scattering from;
* the global **residual** field (each worker writes its ranks' owned
  blocks — disjoint regions, so no locking is needed);
* the global **permeability** field, always ``float64`` (the mesh's own
  dtype, whatever the flux dtype): the parent writes it once, when it
  creates the arena and before any worker is sent ``setup``, and from
  then on it is only read — each worker cuts its ranks' padded blocks
  out of it.  It is the problem's one large input, so it crosses
  processes here and not through the pipes; it survives respawns;
* one **heartbeat** counter per rank (``uint64``): workers bump their
  ranks' counters at every phase boundary (and periodically inside
  recv spin loops), and the parent's lease-liveness check reads them to
  tell a *hung* worker from a merely slow one — a stalled counter past
  the lease is treated like a crash;
* **two parity slots** per directed halo link, in the canonical
  :func:`~repro.cluster.flux.halo_links` order.  Each parity slot is an
  8-byte sequence header followed by the strip payload; exchange ``k``
  uses slot ``k % 2``.  The sequence number is the publication
  protocol: a sender writes the payload, then stores ``k + 1`` into the
  header; a receiver spins until the header reaches the value it
  expects.  Two slots make the protocol safe under *pipelined*
  applications: a sender may publish exchange ``k + 1`` while its neighbour
  is still absorbing exchange ``k`` (endpoints drift by at most one
  exchange — the parent only issues application ``k`` once every worker
  finished ``k - 2``), and the two in-flight strips never share bytes.
  Per-link monotonic sequence numbers keep lost, duplicate and stale
  strips all detectable.

Everything is 8-byte aligned so the ``uint64`` headers and float
payload views are aligned regardless of dtype.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cluster.comm import CartGrid
from repro.cluster.decomposition import BlockDecomposition
from repro.cluster.flux import HaloLink, halo_links

__all__ = ["LinkSlot", "HaloLayout", "SEQ_BYTES", "NUM_PARITIES"]

#: Bytes of the per-link sequence header (one little-endian uint64).
SEQ_BYTES = 8

#: Parity slots per halo link (and per pressure field): even/odd
#: exchanges alternate slots, which is sufficient because pipelined
#: endpoints are never more than one exchange apart.
NUM_PARITIES = 2

#: Storage dtype of the arena's permeability field: the mesh's
#: (``CartesianMesh3D`` stores rock properties as float64).
PERMEABILITY_DTYPE = np.dtype(np.float64)


def _align8(offset: int) -> int:
    return (offset + 7) & ~7


@dataclass(frozen=True)
class LinkSlot:
    """One halo link's fixed regions (both parities) in the arena."""

    link: HaloLink
    seq_offsets: tuple[int, int]
    payload_offsets: tuple[int, int]
    payload_bytes: int

    @property
    def key(self) -> tuple[int, int, int]:
        """(source, dest, tag) — the same key SimComm's mailbox uses."""
        return (self.link.source, self.link.dest, self.link.tag)


class HaloLayout:
    """Byte map of the shared arena for a ``px x py`` decomposition.

    Picklable (plain ints, dataclasses and a dtype string), so it can be
    shipped to spawned workers; under ``fork`` it is inherited.
    """

    def __init__(
        self,
        *,
        shape_zyx: tuple[int, int, int],
        px: int,
        py: int,
        links: list[HaloLink],
        dtype=np.float64,
    ) -> None:
        self.shape_zyx = tuple(int(n) for n in shape_zyx)
        self.px = int(px)
        self.py = int(py)
        self.dtype = np.dtype(dtype)
        nz, ny, nx = self.shape_zyx
        field_bytes = nz * ny * nx * self.dtype.itemsize
        self.pressure_offsets = (0, _align8(field_bytes))
        self.residual_offset = _align8(self.pressure_offsets[1] + field_bytes)
        self.permeability_offset = _align8(self.residual_offset + field_bytes)
        # one uint64 heartbeat counter per rank, after the permeability
        self.heartbeat_offset = _align8(
            self.permeability_offset + nz * ny * nx * PERMEABILITY_DTYPE.itemsize
        )
        heartbeat_bytes = self.px * self.py * SEQ_BYTES
        offset = _align8(self.heartbeat_offset + heartbeat_bytes)
        slots: list[LinkSlot] = []
        for link in links:
            payload_bytes = link.cells(nz) * self.dtype.itemsize
            seq_offsets = []
            payload_offsets = []
            for _ in range(NUM_PARITIES):
                seq_offset = offset
                payload_offset = _align8(seq_offset + SEQ_BYTES)
                seq_offsets.append(seq_offset)
                payload_offsets.append(payload_offset)
                offset = _align8(payload_offset + payload_bytes)
            slots.append(
                LinkSlot(
                    link=link,
                    seq_offsets=tuple(seq_offsets),
                    payload_offsets=tuple(payload_offsets),
                    payload_bytes=payload_bytes,
                )
            )
        self.slots = tuple(slots)
        self.total_bytes = max(offset, 1)  # SharedMemory rejects size 0

    # ------------------------------------------------------------------ #
    @classmethod
    def from_decomposition(
        cls, decomp: BlockDecomposition, grid: CartGrid, *, dtype=np.float64
    ) -> "HaloLayout":
        """The canonical layout for *decomp* on *grid*."""
        nz = decomp.mesh.nz
        return cls(
            shape_zyx=(nz, decomp.mesh.ny, decomp.mesh.nx),
            px=grid.px,
            py=grid.py,
            links=halo_links(decomp, grid),
            dtype=dtype,
        )

    @property
    def size(self) -> int:
        """Communicator size (number of ranks)."""
        return self.px * self.py

    @property
    def links(self) -> list[HaloLink]:
        return [slot.link for slot in self.slots]

    def slot(self, source: int, dest: int, tag: int) -> LinkSlot:
        """The slot for link ``(source, dest, tag)``; KeyError when the
        pair shares no halo cells."""
        return self._by_key[(source, dest, tag)]

    @property
    def _by_key(self) -> dict[tuple[int, int, int], LinkSlot]:
        by_key = self.__dict__.get("_by_key_cache")
        if by_key is None:
            by_key = {slot.key: slot for slot in self.slots}
            self.__dict__["_by_key_cache"] = by_key
        return by_key

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state.pop("_by_key_cache", None)
        return state
