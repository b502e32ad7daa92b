"""One anonymous shared memory file per SPMD run, with typed numpy views.

The parent *owns* the arena (``create=True``): it makes a Linux memory
file (``memfd_create``), sizes and maps it, and repairs sequence headers
across respawns.  Workers *attach* to the file descriptor the parent
sends them over their pipe right after ``setup``
(:mod:`repro.par.runtime`): the arena maps it and closes it.

Nothing is ever named in ``/dev/shm``, so nothing needs unlinking and
no resource tracker is needed: the kernel frees the memory when its
last holder exits, on any exit, a SIGKILLed parent included (its
orphaned workers exit at their next parent check).  The owner's
descriptor is closed by :meth:`SharedArena.close`, or by a
:func:`weakref.finalize` when an arena is dropped without it.  Linux
only: where ``os.memfd_create`` is missing, creating an arena raises
``RuntimeError``.
"""

from __future__ import annotations

import mmap
import os
import weakref

import numpy as np

from repro.par.layout import NUM_PARITIES, PERMEABILITY_DTYPE, HaloLayout, LinkSlot

__all__ = ["SharedArena"]

#: Name of every arena's memory file, as ``/proc/<pid>/fd`` shows it
#: (``/memfd:repro-par-arena (deleted)``); the kernel adds no uniqueness.
MEMFD_NAME = "repro-par-arena"


class SharedArena:
    """Typed views over one :class:`HaloLayout`-shaped shared memory file.

    ``SharedArena(layout, create=True)`` creates it; ``SharedArena(layout,
    fd=fd)`` maps a received descriptor of it and closes that descriptor.
    """

    def __init__(
        self, layout: HaloLayout, *, fd: int | None = None, create: bool = False
    ) -> None:
        self.layout = layout
        #: The owner's descriptor, which the pool sends to each worker
        #: (``None`` in an attached arena).
        self.fd = None
        self._close_fd = None
        if create:
            if not hasattr(os, "memfd_create"):
                raise RuntimeError(
                    "repro.par needs os.memfd_create (Linux) for its "
                    "shared arena"
                )
            fd = self.fd = os.memfd_create(MEMFD_NAME, os.MFD_CLOEXEC)
            self._close_fd = weakref.finalize(self, os.close, fd)
            os.ftruncate(fd, layout.total_bytes)
        # mmap keeps a duplicate of the descriptor for itself
        self._mmap = mmap.mmap(fd, layout.total_bytes)
        if not create:
            os.close(fd)
        nz, ny, nx = layout.shape_zyx
        buf = self._mmap
        #: Per-parity global pressure fields (parent writes application
        #: ``k`` into parity ``k % 2`` before issuing it).
        self._pressures = tuple(
            np.ndarray(
                (nz, ny, nx), dtype=layout.dtype, buffer=buf, offset=off
            )
            for off in layout.pressure_offsets
        )
        #: Global residual field (workers write disjoint owned blocks).
        self.residual = np.ndarray(
            (nz, ny, nx), dtype=layout.dtype, buffer=buf,
            offset=layout.residual_offset,
        )
        #: Global permeability: the parent fills it once, right after
        #: creating the arena; every attached view is read-only.
        self.permeability = np.ndarray(
            (nz, ny, nx), dtype=PERMEABILITY_DTYPE, buffer=buf,
            offset=layout.permeability_offset,
        )
        self.permeability.flags.writeable = create
        #: Per-rank liveness counters (workers bump; parent reads).
        #: Zero-initialized by the OS on create.
        self.heartbeats = np.ndarray(
            (layout.size,), dtype=np.uint64, buffer=buf,
            offset=layout.heartbeat_offset,
        )
        self._seqs: dict[tuple[int, int, int], tuple[np.ndarray, ...]] = {}
        self._payloads: dict[tuple[int, int, int], tuple[np.ndarray, ...]] = {}
        for slot in layout.slots:
            sy, sx = slot.link.shape_yx
            self._seqs[slot.key] = tuple(
                np.ndarray((1,), dtype=np.uint64, buffer=buf, offset=off)
                for off in slot.seq_offsets
            )
            self._payloads[slot.key] = tuple(
                np.ndarray(
                    (nz, sy, sx), dtype=layout.dtype, buffer=buf, offset=off
                )
                for off in slot.payload_offsets
            )

    # ------------------------------------------------------------------ #
    def pressure(self, parity: int) -> np.ndarray:
        """The global pressure field of application parity ``parity``."""
        return self._pressures[parity % NUM_PARITIES]

    def seq(self, key: tuple[int, int, int], parity: int) -> int:
        """Current sequence number of link *key*'s parity slot."""
        return int(self._seqs[key][parity % NUM_PARITIES][0])

    def set_seq(self, key: tuple[int, int, int], parity: int, value: int) -> None:
        """Publish sequence ``value`` into the parity slot's header."""
        self._seqs[key][parity % NUM_PARITIES][0] = value

    def payload(self, key: tuple[int, int, int], parity: int) -> np.ndarray:
        """The (nz, sy, sx) payload view of link *key*'s parity slot."""
        return self._payloads[key][parity % NUM_PARITIES]

    def slot(self, key: tuple[int, int, int]) -> LinkSlot:
        """The :class:`LinkSlot` backing ``key`` ``(source, dest, tag)``."""
        return self.layout.slot(*key)

    # ------------------------------------------------------------------ #
    def heartbeat(self, rank: int) -> int:
        """Current heartbeat counter of *rank* (parent-side liveness read)."""
        return int(self.heartbeats[rank])

    def bump_heartbeats(self, ranks) -> None:
        """Increment the heartbeat counters of *ranks* (worker-side).

        A torn read on the parent side is harmless: any observed change
        proves liveness, and uint64 wraparound takes longer than the
        universe.  Plain numpy stores are single 8-byte writes on every
        platform we run on.
        """
        for rank in ranks:
            self.heartbeats[rank] += np.uint64(1)

    def reset_seqs(self, completed: int = 0) -> None:
        """Repair every link header to the state after ``completed``
        fully finished exchanges.

        Exchange ``k`` publishes ``k + 1`` into parity slot ``k % 2``,
        so after ``completed`` exchanges the last-written values are
        ``completed`` on parity ``(completed - 1) % 2`` and
        ``completed - 1`` on the other parity (0 where an exchange never
        reached the slot).  Used by the parent after a worker crash: a
        partially executed exchange leaves some links already published
        one ahead; rewinding lets the respawned pool re-run the pending
        applications from a clean, consistent sequence state.
        """
        values = [0] * NUM_PARITIES
        if completed >= 1:
            values[(completed - 1) % NUM_PARITIES] = completed
        if completed >= 2:
            values[completed % NUM_PARITIES] = completed - 1
        for seqs in self._seqs.values():
            for parity in range(NUM_PARITIES):
                seqs[parity][0] = values[parity]

    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Release the local mapping and, on the owner, its descriptor."""
        # numpy views keep exported pointers into the mmap; drop them
        # before closing or mmap.close() raises BufferError
        self._seqs = {}
        self._payloads = {}
        self._pressures = ()
        self.residual = None
        self.permeability = None
        self.heartbeats = None
        try:
            self._mmap.close()
        except BufferError:  # pragma: no cover - stray external view
            pass
        if self._close_fd is not None:
            self._close_fd()  # idempotent
