"""Runtime fault injection derived from a :class:`FaultPlan`.

The injector is the *hot-path* companion of the plan: it pre-resolves
dead-PE sets, packed-link fault tables and per-router stall delays at
construction so that the runtime's per-hop question — "does anything bad
happen on this link?" — is one or two dict lookups.  When no injector is
attached, `EventRuntime`/`SimComm` skip it behind a single boolean check
(the same zero-cost-when-disabled pattern as the trace guard).

Determinism: all randomness (probabilistic faults, which payload word a
corruption flips) comes from ``random.Random(plan.seed)``, so a plan
replays identically.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass, fields

import numpy as np

from repro.faults.plan import FaultPlan
from repro.wse.packet import Message

__all__ = ["FaultInjector", "FaultStats"]

#: Fate returned by :meth:`FaultInjector.on_hop` for a dropped packet.
DROP = -1.0


@dataclass(slots=True)
class FaultStats:
    """What the injector actually did (the chaos harness's ground truth)."""

    packets_dropped: int = 0
    packets_corrupted: int = 0
    packets_delayed: int = 0
    hops_stalled: int = 0
    injections_suppressed: int = 0
    deliveries_suppressed: int = 0
    sends_dropped: int = 0

    def as_dict(self) -> dict:
        return asdict(self)

    @property
    def fabric_events(self) -> int:
        """Total fabric-side fault firings."""
        return (
            self.packets_dropped
            + self.packets_corrupted
            + self.packets_delayed
            + self.hops_stalled
            + self.injections_suppressed
            + self.deliveries_suppressed
        )

    def merge(self, other: "FaultStats") -> "FaultStats":
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))
        return self


class FaultInjector:
    """Executable form of a :class:`FaultPlan`.

    Fabric-side API (called by `EventRuntime` only when attached):

    - :attr:`dead` — frozenset of dead-PE coords; injections from and
      deliveries to these PEs are suppressed by the runtime.
    - :meth:`on_hop` — fate of one link hop: :data:`DROP` (< 0) to drop
      the packet, else extra delay cycles (0.0 = untouched).  Corruption
      happens in place here (on a *copied* payload, so multicast forks
      sharing the original array are unaffected).

    Cluster-side API (called by `SimComm`/`ClusterFluxComputation`):

    - :meth:`begin_exchange` / :meth:`begin_retry` — advance the
      exchange/attempt counters that scope transient rank failures.
    - :meth:`rank_down` — is this rank currently dropping its traffic?
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._rng = random.Random(plan.seed)
        self.stats = FaultStats()
        self.dead: frozenset[tuple[int, int]] = frozenset(
            d.coord for d in plan.dead_pes
        )
        #: packed ``(x << 16 | y) << 3 | port`` -> LinkFault (the key
        #: layout of the trace sink's links, repro.obs.trace.pack_link)
        self._links = {
            (((lf.x << 16) | lf.y) << 3) | lf.port: lf for lf in plan.link_faults
        }
        self._stalls = {st.coord: st.stall_cycles for st in plan.router_stalls}
        #: True when any fabric-side fault exists — the runtime's single
        #: boolean guard reads this once at construction
        self.fabric_active = bool(self.dead or self._links or self._stalls)
        self.rank_active = bool(plan.rank_failures)
        self._exchange = -1
        self._attempt = 0

    # -------------------------------------------------------------- #
    # Fabric side
    # -------------------------------------------------------------- #
    def on_hop(self, coord: tuple[int, int], out_port: int, msg: Message) -> float:
        """Fate of one hop over ``(coord, out_port)``.

        Returns :data:`DROP` (negative) when the packet dies on the
        link, otherwise the extra delay in cycles (usually 0.0).
        """
        delay = 0.0
        stall = self._stalls.get(coord)
        if stall is not None:
            self.stats.hops_stalled += 1
            delay += stall
        fault = self._links.get((((coord[0] << 16) | coord[1]) << 3) | out_port)
        if fault is not None and (
            fault.probability >= 1.0 or self._rng.random() < fault.probability
        ):
            if fault.mode == "drop":
                self.stats.packets_dropped += 1
                return DROP
            if fault.mode == "delay":
                self.stats.packets_delayed += 1
                delay += fault.delay_cycles
            else:  # corrupt
                self._corrupt(msg)
        return delay

    def _corrupt(self, msg: Message) -> None:
        """Flip one random bit of one payload word.

        The payload array is replaced with a corrupted *copy*: multicast
        forks share the original array, and a real link fault garbles
        only the train on that link.
        """
        payload = msg.payload
        if payload is None:
            return  # control wavelets carry no data words
        corrupted = np.array(payload)
        flat = corrupted.reshape(-1)
        index = self._rng.randrange(flat.size)
        itemsize = flat.dtype.itemsize
        if itemsize in (4, 8):
            raw = flat.view(np.uint32 if itemsize == 4 else np.uint64)
            bit = self._rng.randrange(itemsize * 8)
            raw[index] = raw[index] ^ raw.dtype.type(1 << bit)
        else:  # exotic dtype: negate-or-set keeps the corruption visible
            flat[index] = -flat[index] if flat[index] != 0 else 1
        msg.payload = corrupted
        self.stats.packets_corrupted += 1

    # -------------------------------------------------------------- #
    # Cluster side
    # -------------------------------------------------------------- #
    @property
    def exchange(self) -> int:
        """0-based index of the current halo exchange (-1 before any)."""
        return self._exchange

    @property
    def attempt(self) -> int:
        """Send-attempt counter within the current exchange."""
        return self._attempt

    def begin_exchange(self) -> None:
        """A new halo exchange starts: attempt counter resets."""
        self._exchange += 1
        self._attempt = 0

    def begin_retry(self) -> None:
        """A retransmission pass starts within the current exchange."""
        self._attempt += 1

    def rank_down(self, rank: int) -> bool:
        """True while *rank* is inside one of its failure windows."""
        exchange, attempt = self._exchange, self._attempt
        for failure in self.plan.rank_failures:
            if (
                failure.rank == rank
                and failure.exchange == exchange
                and attempt < failure.attempts
            ):
                return True
        return False
