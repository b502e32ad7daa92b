"""Deterministic, seed-driven fault plans.

A :class:`FaultPlan` is a frozen, JSON-round-trippable description of
*what* goes wrong: which PEs are dead on arrival, which directed fabric
links drop/corrupt/delay traffic, which routers stall, and which cluster
ranks fail during which halo exchange.  It carries no runtime state —
the :class:`~repro.faults.injector.FaultInjector` derives the hot-path
lookup structures and the RNG from it.

Plans are deterministic by construction: :meth:`FaultPlan.seeded` maps
``(seed, topology)`` to the same plan on every run, which is what lets
the chaos harness and CI assert exact detected/recovered outcomes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

from repro.faults.errors import FaultPlanError
from repro.wse.geometry import CARDINAL_PORTS, OFFSET, Port

__all__ = [
    "DeadPE",
    "LinkFault",
    "RouterStall",
    "RankFailure",
    "FaultPlan",
    "LINK_FAULT_MODES",
]

#: What a faulty link does to each packet crossing it.
LINK_FAULT_MODES = ("drop", "corrupt", "delay")


@dataclass(frozen=True)
class DeadPE:
    """A PE that never sends and never receives (manufacturing defect)."""

    x: int
    y: int

    @property
    def coord(self) -> tuple[int, int]:
        return (self.x, self.y)


@dataclass(frozen=True)
class LinkFault:
    """A directed fabric link ``(x, y) --port-->`` that misbehaves.

    ``probability`` is the per-packet chance the fault fires (1.0 =
    every packet); ``delay_cycles`` only applies to ``mode="delay"``.
    """

    x: int
    y: int
    port: Port
    mode: str = "drop"
    probability: float = 1.0
    delay_cycles: float = 0.0

    def __post_init__(self) -> None:
        if self.mode not in LINK_FAULT_MODES:
            raise FaultPlanError(
                f"unknown link fault mode {self.mode!r} "
                f"(expected one of {LINK_FAULT_MODES})"
            )
        if not 0.0 < self.probability <= 1.0:
            raise FaultPlanError(
                f"link fault probability must be in (0, 1], got {self.probability}"
            )
        if self.mode == "delay" and not self.delay_cycles > 0.0:
            raise FaultPlanError("delay link faults need delay_cycles > 0")
        if self.port not in CARDINAL_PORTS:
            raise FaultPlanError(
                f"link faults apply to cardinal links, got {self.port!r}"
            )

    @property
    def coord(self) -> tuple[int, int]:
        return (self.x, self.y)


@dataclass(frozen=True)
class RouterStall:
    """Every egress hop of the router at ``(x, y)`` is delayed.

    Models a backpressured/slow router rather than a dead one: traffic
    still flows, ``stall_cycles`` late.  Large stalls are what the
    progress watchdog is meant to catch.
    """

    x: int
    y: int
    stall_cycles: float

    def __post_init__(self) -> None:
        if not self.stall_cycles > 0.0:
            raise FaultPlanError("router stalls need stall_cycles > 0")

    @property
    def coord(self) -> tuple[int, int]:
        return (self.x, self.y)


@dataclass(frozen=True)
class RankFailure:
    """A cluster rank that drops its sends during one halo exchange.

    The rank is down for the first ``attempts`` send passes of exchange
    number ``exchange`` (0-based, counted per communicator lifetime) and
    recovers afterwards — the transient-failure model that halo
    re-exchange with retry is designed to survive.
    """

    rank: int
    exchange: int = 0
    attempts: int = 1

    def __post_init__(self) -> None:
        if self.rank < 0:
            raise FaultPlanError("rank failures need rank >= 0")
        if self.attempts < 1:
            raise FaultPlanError("rank failures need attempts >= 1")


@dataclass(frozen=True)
class FaultPlan:
    """A complete, deterministic description of injected faults."""

    seed: int = 0
    dead_pes: tuple[DeadPE, ...] = ()
    link_faults: tuple[LinkFault, ...] = ()
    router_stalls: tuple[RouterStall, ...] = ()
    rank_failures: tuple[RankFailure, ...] = ()

    @property
    def empty(self) -> bool:
        return not (
            self.dead_pes
            or self.link_faults
            or self.router_stalls
            or self.rank_failures
        )

    @property
    def fabric_faults(self) -> int:
        return len(self.dead_pes) + len(self.link_faults) + len(self.router_stalls)

    def describe(self) -> list[str]:
        """Human-readable one-liner per fault (stable order)."""
        lines: list[str] = []
        for d in self.dead_pes:
            lines.append(f"dead PE at {d.coord}")
        for lf in self.link_faults:
            extra = (
                f" p={lf.probability:g}" if lf.probability < 1.0 else ""
            ) + (f" +{lf.delay_cycles:g}cy" if lf.mode == "delay" else "")
            lines.append(f"{lf.mode} link {lf.coord}->{lf.port.name}{extra}")
        for st in self.router_stalls:
            lines.append(f"stalled router at {st.coord} (+{st.stall_cycles:g}cy/hop)")
        for rf in self.rank_failures:
            lines.append(
                f"rank {rf.rank} down for exchange {rf.exchange} "
                f"({rf.attempts} attempt(s))"
            )
        return lines

    # -------------------------------------------------------------- #
    # JSON round-trip
    # -------------------------------------------------------------- #
    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "dead_pes": [[d.x, d.y] for d in self.dead_pes],
            "link_faults": [
                {
                    "x": lf.x,
                    "y": lf.y,
                    "port": lf.port.name,
                    "mode": lf.mode,
                    "probability": lf.probability,
                    "delay_cycles": lf.delay_cycles,
                }
                for lf in self.link_faults
            ],
            "router_stalls": [
                {"x": st.x, "y": st.y, "stall_cycles": st.stall_cycles}
                for st in self.router_stalls
            ],
            "rank_failures": [
                {"rank": rf.rank, "exchange": rf.exchange, "attempts": rf.attempts}
                for rf in self.rank_failures
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FaultPlan":
        return cls(
            seed=int(data.get("seed", 0)),
            dead_pes=tuple(DeadPE(int(x), int(y)) for x, y in data.get("dead_pes", ())),
            link_faults=tuple(
                LinkFault(
                    x=int(lf["x"]),
                    y=int(lf["y"]),
                    port=Port[lf["port"]],
                    mode=lf.get("mode", "drop"),
                    probability=float(lf.get("probability", 1.0)),
                    delay_cycles=float(lf.get("delay_cycles", 0.0)),
                )
                for lf in data.get("link_faults", ())
            ),
            router_stalls=tuple(
                RouterStall(int(st["x"]), int(st["y"]), float(st["stall_cycles"]))
                for st in data.get("router_stalls", ())
            ),
            rank_failures=tuple(
                RankFailure(
                    rank=int(rf["rank"]),
                    exchange=int(rf.get("exchange", 0)),
                    attempts=int(rf.get("attempts", 1)),
                )
                for rf in data.get("rank_failures", ())
            ),
        )

    # -------------------------------------------------------------- #
    # Seeded construction
    # -------------------------------------------------------------- #
    @classmethod
    def seeded(
        cls,
        seed: int,
        *,
        fabric_shape: tuple[int, int],
        ranks: int = 0,
        dead_pes: int = 1,
        lossy_links: int = 1,
        rank_failures: int = 1,
        router_stalls: int = 0,
        stall_cycles: float = 1_000_000.0,
    ) -> "FaultPlan":
        """The canonical chaos plan for a ``fabric_shape`` fabric.

        Picks ``dead_pes`` distinct dead PEs, ``lossy_links`` interior
        links that drop every packet, and (when ``ranks > 0``)
        ``rank_failures`` transient rank failures on exchange 0 — all
        driven by ``random.Random(seed)`` so the same seed reproduces the
        same plan bit-for-bit.
        """
        width, height = fabric_shape
        if width < 2 or height < 1:
            raise FaultPlanError(
                f"seeded plans need a fabric at least 2x1, got {fabric_shape}"
            )
        rng = random.Random(seed)
        dead: list[DeadPE] = []
        taken: set[tuple[int, int]] = set()
        while len(dead) < dead_pes:
            coord = (rng.randrange(width), rng.randrange(height))
            if coord in taken:
                continue
            taken.add(coord)
            dead.append(DeadPE(*coord))
        links: list[LinkFault] = []
        seen_links: set[tuple[int, int, Port]] = set()
        while len(links) < lossy_links:
            x, y = rng.randrange(width), rng.randrange(height)
            port = rng.choice(CARDINAL_PORTS)
            dx, dy = OFFSET[port]
            # keep the link on-fabric and clear of dead endpoints so the
            # drop is observable as missing traffic, not masked silence
            if not (0 <= x + dx < width and 0 <= y + dy < height):
                continue
            if (x, y) in taken or (x + dx, y + dy) in taken:
                continue
            if (x, y, port) in seen_links:
                continue
            seen_links.add((x, y, port))
            links.append(LinkFault(x, y, port, mode="drop"))
        stalls: list[RouterStall] = []
        while len(stalls) < router_stalls:
            coord = (rng.randrange(width), rng.randrange(height))
            if coord in taken:
                continue
            taken.add(coord)
            stalls.append(RouterStall(*coord, stall_cycles=stall_cycles))
        failures: list[RankFailure] = []
        if ranks > 0:
            picked: set[int] = set()
            while len(failures) < min(rank_failures, ranks):
                rank = rng.randrange(ranks)
                if rank in picked:
                    continue
                picked.add(rank)
                failures.append(RankFailure(rank=rank, exchange=0))
        return cls(
            seed=seed,
            dead_pes=tuple(dead),
            link_faults=tuple(links),
            router_stalls=tuple(stalls),
            rank_failures=tuple(failures),
        )

    def only_fabric(self) -> "FaultPlan":
        """This plan with the cluster-rank failures stripped."""
        return replace(self, rank_failures=())

    def only_ranks(self) -> "FaultPlan":
        """This plan with the fabric faults stripped."""
        return replace(self, dead_pes=(), link_faults=(), router_stalls=())
