"""FastTrack-style happens-before checker over shared-arena traces.

The model checker (:mod:`repro.check.race_model`) proves the abstract
protocol; this module checks **real exchanges**.  A zero-cost-when-off
``race_trace=`` hook on :class:`~repro.par.comm.ProcComm` records every
halo publish and observe as :class:`ArenaAccess` events, and
:func:`repro.check.race.hb_live_probe` drives two real endpoints over
one :class:`~repro.par.shm.SharedArena` with it switched on:

* ``write`` / ``read`` — data accesses: link payload strips (the
  analyzer also names per-parity pressure fields and per-rank residual
  blocks).
* ``release`` / ``acquire`` — synchronizing accesses: a sequence-header
  publish and the matching observation.  Release/acquire pairs are
  matched on ``(loc, value)`` — e.g. the header location plus the
  published sequence number.

:func:`check_hb` rebuilds the happens-before order with per-actor
vector clocks (program order within an actor; release→acquire edges
across actors, FastTrack-style) and reports any pair of conflicting
data accesses — same location, different actors, at least one write —
that are unordered, localized to the exact link/slot/rank/step of both
endpoints.  A correct run of the depth-2 pipelined halo protocol has
**zero** such pairs; an access outside the publish protocol (the kind
the concurrency lint hunts statically) shows up here dynamically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.check.findings import Finding, Severity

__all__ = [
    "ArenaAccess",
    "RaceTraceRecorder",
    "check_hb",
    "describe_loc",
]

_SYNC_OPS = frozenset({"acquire", "release"})
_DATA_OPS = frozenset({"read", "write"})


@dataclass(frozen=True)
class ArenaAccess:
    """One recorded shared-arena access.

    ``loc`` is a structured location tuple (see :func:`describe_loc`):
    ``("link", src, dst, tag, parity, "payload"|"header")`` for link
    slots, ``("pressure", parity)``, ``("residual", rank)``,
    ``("app",)`` (application stamp), ``("reply", worker)``.  ``value``
    carries the sequence/exchange number for sync matching; ``step``
    the exchange index at the access; ``rank`` the owning rank when
    one exists.  ``index`` is the per-actor program-order position.
    """

    actor: str
    index: int
    op: str
    loc: tuple
    value: int = 0
    step: int = -1
    rank: int | None = None

    def as_dict(self) -> dict:
        return {
            "actor": self.actor,
            "index": self.index,
            "op": self.op,
            "loc": list(self.loc),
            "value": self.value,
            "step": self.step,
            "rank": self.rank,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ArenaAccess":
        return cls(
            actor=data["actor"],
            index=int(data["index"]),
            op=data["op"],
            loc=tuple(data["loc"]),
            value=int(data["value"]),
            step=int(data["step"]),
            rank=data["rank"],
        )

    def describe(self) -> str:
        where = f" rank {self.rank}" if self.rank is not None else ""
        step = f" step {self.step}" if self.step >= 0 else ""
        return f"{self.op} by {self.actor}{where}{step} (event #{self.index})"


def describe_loc(loc: tuple) -> str:
    """Human name of a location tuple, naming link/slot where present."""
    if loc and loc[0] == "link":
        _, src, dst, tag, parity, part = loc
        return f"link ({src}, {dst}, {tag}) parity-{parity} {part}"
    if loc and loc[0] == "pressure":
        return f"pressure parity-{loc[1]}"
    if loc and loc[0] == "residual":
        return f"residual block of rank {loc[1]}"
    if loc and loc[0] == "app":
        return "application stamp"
    if loc and loc[0] == "reply":
        return f"reply slot of worker {loc[1]}"
    return repr(loc)


class RaceTraceRecorder:
    """Accumulates :class:`ArenaAccess` events for one actor.

    An actor in another process can ship drained batches (the
    span-shipping idiom) for a recorder to ingest next to its own
    events.  ``index`` keeps incrementing across drains so program
    order survives batching.
    """

    def __init__(self, actor: str) -> None:
        self.actor = actor
        self.events: list[ArenaAccess] = []
        self._index = 0

    def record(
        self,
        op: str,
        loc: tuple,
        *,
        value: int = 0,
        step: int = -1,
        rank: int | None = None,
    ) -> None:
        self.events.append(
            ArenaAccess(
                actor=self.actor, index=self._index, op=op, loc=tuple(loc),
                value=int(value), step=int(step),
                rank=None if rank is None else int(rank),
            )
        )
        self._index += 1

    def drain(self) -> list[dict]:
        """Events so far as dicts, clearing the local buffer (the
        per-actor index keeps running, preserving program order)."""
        out = [e.as_dict() for e in self.events]
        self.events = []
        return out

    def ingest(self, payload: Iterable[dict]) -> None:
        """Absorb events shipped by another process (parent side)."""
        self.events.extend(ArenaAccess.from_dict(d) for d in payload)


# ------------------------------------------------------------------ #
# Vector-clock happens-before analysis
# ------------------------------------------------------------------ #
def _hb_before(epoch: tuple[str, int], vc: dict[str, int]) -> bool:
    """Did the access at *epoch* ``(actor, clock)`` happen before a
    point whose vector clock is *vc*?"""
    actor, clock = epoch
    return vc.get(actor, 0) >= clock


def check_hb(events: Iterable[ArenaAccess]) -> list[Finding]:
    """Happens-before analysis over recorded arena accesses.

    Events are replayed in an order consistent with happens-before:
    per-actor queues advance in program (index) order, and an acquire
    only runs once its matching release — same ``(loc, value)`` — has
    run, joining the releaser's clock at that point.  An acquire whose
    release was never recorded (e.g. tracing attached mid-run) runs
    without a join: missing edges can only produce *more* reported
    races, never hide one.

    Each unordered conflicting pair becomes one ERROR finding
    (``race-hb-conflict``), deduplicated per location, naming both
    endpoints with actor/rank/step and the decoded link/slot.
    """
    queues: dict[str, list[ArenaAccess]] = {}
    for event in events:
        queues.setdefault(event.actor, []).append(event)
    for queue in queues.values():
        queue.sort(key=lambda e: e.index)
    actors = sorted(queues)
    heads = {a: 0 for a in actors}

    clocks: dict[str, dict[str, int]] = {a: {a: 0} for a in actors}
    released: dict[tuple, dict[str, int]] = {}
    writes: dict[tuple, dict[str, tuple[int, ArenaAccess]]] = {}
    reads: dict[tuple, dict[str, tuple[int, ArenaAccess]]] = {}
    findings: list[Finding] = []
    flagged_locs: set[tuple] = set()

    def conflict(prev: ArenaAccess, prev_epoch, cur: ArenaAccess) -> None:
        if cur.loc in flagged_locs:
            return
        flagged_locs.add(cur.loc)
        findings.append(
            Finding(
                code="race-hb-conflict",
                severity=Severity.ERROR,
                message=(
                    f"unordered conflicting accesses to {describe_loc(cur.loc)}"
                ),
                detail=(
                    f"{prev.describe()} is concurrent with {cur.describe()}: "
                    "no release/acquire chain orders them"
                ),
            )
        )

    def run_event(event: ArenaAccess) -> None:
        actor = event.actor
        vc = clocks[actor]
        vc[actor] = vc.get(actor, 0) + 1
        if event.op == "acquire":
            other = released.get((event.loc, event.value))
            if other is not None:
                for a, c in other.items():
                    if vc.get(a, 0) < c:
                        vc[a] = c
            return
        if event.op == "release":
            released[(event.loc, event.value)] = dict(vc)
            return
        # data access
        my_epoch = (actor, vc[actor])
        if event.op == "write":
            for table in (writes, reads):
                for a, (clock, prev) in list(table.get(event.loc, {}).items()):
                    if a == actor:
                        continue
                    if not _hb_before((a, clock), vc):
                        conflict(prev, (a, clock), event)
                    else:
                        del table[event.loc][a]
            writes.setdefault(event.loc, {})[actor] = (vc[actor], event)
        else:  # read
            for a, (clock, prev) in list(writes.get(event.loc, {}).items()):
                if a == actor:
                    continue
                if not _hb_before((a, clock), vc):
                    conflict(prev, (a, clock), event)
            reads.setdefault(event.loc, {})[actor] = (vc[actor], event)

    # scheduler: run any actor whose head is runnable; an acquire is
    # runnable once its matching release ran.  Deterministic actor
    # order keeps reported findings stable.
    remaining = sum(len(q) for q in queues.values())
    while remaining:
        progressed = False
        for actor in actors:
            i = heads[actor]
            queue = queues[actor]
            while i < len(queue):
                event = queue[i]
                if event.op == "acquire" and (
                    (event.loc, event.value) not in released
                ):
                    break
                run_event(event)
                i += 1
                remaining -= 1
                progressed = True
            heads[actor] = i
        if not progressed:
            # every head is an unmatched acquire: run the first one
            # join-less rather than spin (conservative, see docstring)
            for actor in actors:
                if heads[actor] < len(queues[actor]):
                    event = queues[actor][heads[actor]]
                    vc = clocks[actor]
                    vc[actor] = vc.get(actor, 0) + 1
                    heads[actor] += 1
                    remaining -= 1
                    break
    return findings
