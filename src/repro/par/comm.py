"""Shared-memory halo communicator for the multiprocess SPMD runtime.

:class:`ProcComm` implements the :class:`~repro.cluster.comm.HaloComm`
contract over :class:`~repro.par.shm.SharedArena` link slots.  Where
:class:`~repro.cluster.comm.SimComm` matches sends to receives through
an in-process mailbox dict, here the "mailbox" is the per-link,
per-parity sequence header in shared memory:

* ``isend`` copies the strip into the payload of the link's parity slot
  (exchange ``k`` uses slot ``k % 2``), then publishes by storing
  ``k + 1`` into that slot's header.  The store ordering (payload
  first, header second) is what makes the protocol safe on x86's
  total-store-order memory model; the *two* parity slots are what make
  it safe under pipelined applications, where a sender may publish its
  next exchange while the receiver is still absorbing the previous one
  (pipelined endpoints drift by at most one exchange).
* ``recv`` spins until the parity slot's header reaches the expected
  value, first busily and then yielding the core with short sleeps, up
  to a fixed iteration budget (deliberately a *count*, not a wall-clock
  deadline, so the control flow stays deterministic under the repo's
  lint).

Sequence numbers are monotonic per link across the whole run, so a
duplicate publication ("unmatched earlier send"), a stale strip from a
previous exchange ("sequence skew") and a lost strip (receive timeout)
are all distinguishable — the failure taxonomy SimComm surfaces through
its mailbox asserts.
"""

from __future__ import annotations

import time

import numpy as np

from repro.cluster.comm import HaloComm, RankStats, RetryPolicy
from repro.faults.errors import CommTimeoutError
from repro.par.layout import NUM_PARITIES, HaloLayout
from repro.par.shm import SharedArena

__all__ = ["ProcComm"]


class ProcComm(HaloComm):
    """A :class:`HaloComm` over shared-memory link parity slots.

    One instance lives in each worker process; ``ranks`` names the ranks
    this worker executes.  ``stats`` is full-communicator-sized so the
    parent can merge per-rank counters positionally, but only the owned
    ranks' entries are ever populated here.

    Parameters
    ----------
    layout, arena:
        The shared map and an arena mapped for it.
    ranks:
        Ranks executed by this process (sends originate only from
        these; receives land only on these).
    faults:
        Optional :class:`~repro.faults.injector.FaultInjector`; sends
        touching a down rank are dropped exactly like SimComm's.
    start_exchange:
        Completed-exchange count to resume from (used when a respawned
        pool restarts mid-run; link headers were rewound to this value
        by the parent).
    busy_spins / sleep_seconds / max_sleeps:
        Receive spin shape: ``busy_spins`` hot polls, then sleeping
        polls of ``sleep_seconds`` each, at most ``max_sleeps`` of them
        (the deadlock timeout, ~20 s at the defaults).
    heartbeat:
        Optional zero-arg callable bumped periodically inside the
        sleeping spin loop, so a worker blocked in ``recv`` still
        advances its shared-arena heartbeat counters and is not
        mistaken for hung by the parent's lease check.
    race_trace:
        Optional :class:`~repro.check.race_trace.RaceTraceRecorder`.
        When set, every publish/observe is recorded as happens-before
        events — payload ``write`` then header ``release`` on send,
        header ``acquire`` then payload ``read`` on receive — for the
        :func:`~repro.check.race_trace.check_hb` analyzer.  ``None``
        (the default) keeps the hot path untouched.
    """

    def __init__(
        self,
        layout: HaloLayout,
        arena: SharedArena,
        *,
        ranks,
        faults=None,
        start_exchange: int = 0,
        busy_spins: int = 200,
        sleep_seconds: float = 5e-5,
        max_sleeps: int = 400_000,
        heartbeat=None,
        race_trace=None,
    ) -> None:
        self.layout = layout
        self.arena = arena
        self.size = layout.size
        self.ranks = tuple(int(r) for r in ranks)
        self.stats = [RankStats() for _ in range(self.size)]
        self.faults = faults
        self._fault_check = faults is not None and faults.rank_active
        self.busy_spins = int(busy_spins)
        self.sleep_seconds = float(sleep_seconds)
        self.max_sleeps = int(max_sleeps)
        self.heartbeat = heartbeat
        self.race_trace = race_trace
        #: Completed exchanges; publication value for the current one
        #: is ``_exchange + 1``, in parity slot ``_exchange % 2``.
        self._exchange = int(start_exchange)
        #: Real seconds this worker spent spinning in :meth:`recv`.
        self.waited_seconds = 0.0

    # ------------------------------------------------------------------ #
    def _expected_prior(self) -> int:
        """Header value the current exchange's parity slot must hold
        before we publish: what exchange ``k - 2`` left there (``k - 1``),
        or 0 when the slot was never written."""
        return self._exchange - 1 if self._exchange >= 2 else 0

    def isend(self, source: int, dest: int, tag: int, array: np.ndarray) -> None:
        """Publish the strip on link ``(source, dest, tag)``.

        The payload copy happens before the sequence store; the receiver
        only reads the payload after observing the new sequence value.
        """
        self._check_rank(source, "source")
        self._check_rank(dest, "dest")
        if self._fault_check and (
            self.faults.rank_down(source) or self.faults.rank_down(dest)
        ):
            self.stats[source].sends_dropped += 1
            self.faults.stats.sends_dropped += 1
            return
        key = (source, dest, tag)
        parity = self._exchange % NUM_PARITIES
        want = self._exchange + 1
        seq = self.arena.seq(key, parity)
        if seq == want:
            raise RuntimeError(f"unmatched earlier send on {key}")
        if seq != self._expected_prior():
            raise RuntimeError(
                f"sequence skew on {key}: parity-{parity} header at {seq}, "
                f"expected {self._expected_prior()} before exchange {want}"
            )
        if self.race_trace is not None:
            self.race_trace.record(
                "write", ("link", *key, parity, "payload"),
                value=want, step=self._exchange, rank=source,
            )
        payload = self.arena.payload(key, parity)
        np.copyto(payload, array)
        self.arena.set_seq(key, parity, want)
        if self.race_trace is not None:
            self.race_trace.record(
                "release", ("link", *key, parity, "header"),
                value=want, step=self._exchange, rank=source,
            )
        st = self.stats[source]
        st.messages_sent += 1
        st.bytes_sent += payload.nbytes
        return

    def recv(
        self,
        dest: int,
        source: int,
        tag: int,
        *,
        retry: RetryPolicy | None = None,
        on_missing=None,
    ) -> np.ndarray:
        """Wait for the current exchange's strip on ``(source, dest, tag)``.

        ``retry``/``on_missing`` are accepted for interface parity but
        retransmission is meaningless here — the sender either published
        (the spin finds the strip) or its process is dead (the parent's
        crash detector fires first; this timeout is the backstop).

        Returns a *read-only view* into the shared slot; callers copy by
        assigning into their padded block, exactly as with SimComm.
        """
        self._check_rank(dest, "dest")
        self._check_rank(source, "source")
        key = (source, dest, tag)
        parity = self._exchange % NUM_PARITIES
        want = self._exchange + 1
        st = self.stats[dest]
        t0 = time.perf_counter_ns()
        found = False
        for _ in range(self.busy_spins):
            if int(self.arena.seq(key, parity)) >= want:
                found = True
                break
        sleeps = 0
        if not found:
            for sleeps in range(1, self.max_sleeps + 1):
                if int(self.arena.seq(key, parity)) >= want:
                    found = True
                    break
                st.retry_waits += 1
                if self.heartbeat is not None and sleeps % 64 == 0:
                    # still alive, just waiting: keep the lease fresh
                    self.heartbeat()
                time.sleep(self.sleep_seconds)
        elapsed = (time.perf_counter_ns() - t0) / 1e9
        self.waited_seconds += elapsed
        if not found:
            raise CommTimeoutError(
                source,
                dest,
                tag,
                sleeps,
                elapsed_seconds=elapsed,
                policy={
                    "busy_spins": self.busy_spins,
                    "sleep_seconds": self.sleep_seconds,
                    "max_sleeps": self.max_sleeps,
                },
            )
        if int(self.arena.seq(key, parity)) != want:
            raise RuntimeError(
                f"sequence skew on {key}: parity-{parity} header at "
                f"{self.arena.seq(key, parity)}, receiver expected {want}"
            )
        if self.race_trace is not None:
            self.race_trace.record(
                "acquire", ("link", *key, parity, "header"),
                value=want, step=self._exchange, rank=dest,
            )
            self.race_trace.record(
                "read", ("link", *key, parity, "payload"),
                value=want, step=self._exchange, rank=dest,
            )
        payload = self.arena.payload(key, parity)
        view = payload.view()
        view.flags.writeable = False
        st.messages_received += 1
        st.bytes_received += payload.nbytes
        return view

    def barrier(self, phase: str = "") -> None:
        """No-op: the phase schedule is enforced by sequence numbers
        (a receive cannot complete before its send published) and the
        parent's per-application command round-trip."""
        return

    @property
    def pending(self) -> int:
        """Always 0: publication is matched by sequence, not queued."""
        return 0

    def complete_exchange(self) -> None:
        """Advance to the next exchange index (call after all receives
        of the current exchange landed)."""
        self._exchange += 1

    @property
    def exchange_index(self) -> int:
        """Completed exchanges so far."""
        return self._exchange
