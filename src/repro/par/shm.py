"""One shared-memory segment per SPMD run, with typed numpy views.

The parent *owns* the segment (``create=True``): it allocates, repairs
sequence headers across respawns, and unlinks at shutdown.  Workers
*attach* by name and immediately unregister from the
``resource_tracker`` — the stdlib registers every attach and would
otherwise unlink the segment when the first worker exits (the
long-standing bpo-38119 behaviour); ownership stays with the parent.

The owner additionally arms a :func:`weakref.finalize` on itself, so a
segment whose arena is dropped without :meth:`SharedArena.close` — a
``ProcPool`` spawn that blew up halfway, a ``WorkerCrashError`` that
unwound past the cleanup, plain garbage collection, or interpreter exit
(``finalize`` registers with ``atexit``) — is still unlinked from
``/dev/shm`` instead of leaking until reboot.
"""

from __future__ import annotations

import weakref
from multiprocessing import shared_memory

import numpy as np

from repro.par.layout import NUM_PARITIES, PERMEABILITY_DTYPE, HaloLayout, LinkSlot

__all__ = ["SharedArena"]


def _cleanup_segment(shm: shared_memory.SharedMemory) -> None:
    """Best-effort close-and-unlink used by owner teardown paths.

    ``close()`` can raise ``BufferError`` when some view into the
    mapping is still alive; the *unlink* must still happen — removing
    the ``/dev/shm`` name is what prevents the leak, and the mapping
    itself lives only until the process exits anyway.
    """
    try:
        shm.close()
    except BufferError:
        pass
    try:
        shm.unlink()
    except FileNotFoundError:
        pass


class SharedArena:
    """Typed views over one :class:`HaloLayout`-shaped shared segment."""

    def __init__(
        self, layout: HaloLayout, *, name: str | None = None, create: bool = False
    ) -> None:
        self.layout = layout
        self.owner = create
        if create:
            self.shm = shared_memory.SharedMemory(
                name=name, create=True, size=layout.total_bytes
            )
            self._finalizer = weakref.finalize(
                self, _cleanup_segment, self.shm
            )
        else:
            self.shm = self._attach_untracked(name, layout.total_bytes)
            self._finalizer = None
        nz, ny, nx = layout.shape_zyx
        buf = self.shm.buf
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

    @staticmethod
    def _attach_untracked(name: str, size: int) -> shared_memory.SharedMemory:
        """Attach without registering with the ``resource_tracker``.

        The stdlib registers *every* attach as an ownership claim (the
        bpo-38119 behaviour); with several workers sharing the parent's
        forked tracker, the N attach registrations collapse into one set
        entry and the N matching unregisters then spray KeyErrors at
        shutdown.  Ownership lives solely with the creating parent —
        its ``unlink()`` already unregisters — so attaching processes
        simply skip registration.
        """
        from multiprocessing import resource_tracker

        original = resource_tracker.register

        def _skip_shared_memory(rname, rtype):
            if rtype != "shared_memory":  # pragma: no cover - unused types
                original(rname, rtype)

        resource_tracker.register = _skip_shared_memory
        try:
            return shared_memory.SharedMemory(name=name, create=False,
                                              size=size)
        finally:
            resource_tracker.register = original

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
        """Release the local mapping (owner also unlinks the segment)."""
        # numpy views keep exported pointers into the mmap; drop them
        # before closing or mmap.close() raises BufferError
        self._seqs = {}
        self._payloads = {}
        self._pressures = ()
        self.residual = None
        self.permeability = None
        self.heartbeats = None
        if self._finalizer is not None:
            self._finalizer()  # close + unlink, idempotent
            return
        try:
            self.shm.close()
        except BufferError:  # pragma: no cover - stray external view
            pass

    @property
    def name(self) -> str:
        return self.shm.name
