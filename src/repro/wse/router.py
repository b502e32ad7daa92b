"""Per-PE router: five links, per-color routing rules, switch positions.

"Each PE ... is connected to a router.  The router manages five full
duplex links" (Sec. 4).  Routing is configured per color: for every input
port, a set of output ports receives a copy of incoming wavelets (local
multicast).  A color may define several *switch positions* — alternative
routing configurations — and a control wavelet advances the position as it
traverses the router, which is how the cardinal exchange alternates a PE
between *Sending* and *Receiving* roles (Fig. 6a: "two switch positions
are defined for each PE for sending and receiving accordingly").

A fabric has a handful of router roles per color (Sec. 5.2: seed edge,
even and odd distance from it; one static position per diagonal), so a
switch schedule is a *route class*: one read-only :class:`ColorConfig`,
validated and flattened once, held by every router of the class.  A
router owns only what changes under it: its current position per color
(``current``) and its ``table``.

Route lookups are the single hottest query of the event simulator (one
per message per router traversal), so ``table`` is a flattened
``key -> outputs`` map of the *current* switch positions, keyed by the
packed int ``(color << PORT_SHIFT) | in_port`` (ports fit in 3 bits).
The schedule's positions come pre-flattened with their successors
(``ColorConfig.moves``), so an advance only drops the outgoing
position's keys the incoming one lacks and bulk-inserts the incoming
one — no per-advance rebuild.  Switch positions live in one place
each: the schedule in the class's :class:`ColorConfig` (what
:meth:`Router.positions_of`, the IR capture and ``repro check`` read),
the current position in the router's ``current`` (what
:meth:`Router.advance` and the event runtime's drain loop, which
inlines it, write and :meth:`Router.position` reads).  No table beside
them copies a position.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field

from repro.wse.geometry import Port

__all__ = ["Router", "ColorConfig", "RoutePosition", "PORT_SHIFT"]

#: One routing table: input port -> tuple of output ports.
RoutePosition = dict[Port, tuple[Port, ...]]

#: Bits reserved for the port in packed ``(color << PORT_SHIFT) | port``
#: route-table keys (5 ports need 3 bits).
PORT_SHIFT = 3

#: Flattened form of one switch position: packed key -> output ports.
_FlatPosition = dict[int, tuple[Port, ...]]


@dataclass(slots=True)
class ColorConfig:
    """The switch schedule of one route class of *color*.

    Every router of the class holds this one object and nothing writes
    it: ``positions`` (copies of the caller's), the ``initial`` position
    a router starts in — what the IR capture, ``repro check`` and the
    listing read — and ``flat``, the positions flattened for the route
    table.  ``allow_loops`` admits a port that forwards to itself — for
    the verifier, which must rebuild exactly what a captured IR says,
    bad routes included; the schedule's shape (at least one position, an
    initial position in range) is checked either way.
    """

    color: int
    positions: tuple[RoutePosition, ...]
    initial: int = 0
    allow_loops: InitVar[bool] = False
    flat: tuple[_FlatPosition, ...] = field(init=False, repr=False, compare=False)
    #: Per position: ``(keys to drop, next position, its flat table)`` —
    #: one advance, precomputed.
    moves: tuple[tuple[tuple[int, ...], int, _FlatPosition], ...] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self, allow_loops: bool) -> None:
        self.positions = tuple(map(dict, self.positions))
        if not self.positions:
            raise ValueError("a color needs at least one switch position")
        if not 0 <= self.initial < len(self.positions):
            raise ValueError("initial position out of range")
        if not allow_loops:
            for pos in self.positions:
                for in_port, outs in pos.items():
                    if in_port in outs:
                        raise ValueError(
                            f"routing loop: {in_port!r} forwards to itself"
                        )
        base = self.color << PORT_SHIFT
        self.flat = tuple(
            {base | in_port: tuple(outs) for in_port, outs in pos.items()}
            for pos in self.positions
        )
        moves = []
        for i, here in enumerate(self.flat):
            after = (i + 1) % len(self.flat)
            table = self.flat[after]
            moves.append((tuple(k for k in here if k not in table), after, table))
        self.moves = tuple(moves)


@dataclass(slots=True)
class Router:
    """The router of one PE.

    Attributes
    ----------
    coord:
        Fabric coordinate of the owning PE.
    configs:
        Per-color switch schedule of this router's route class (shared
        with its class-mates, read-only).
    current:
        Per-color current switch position; control wavelets advance it.
    """

    coord: tuple[int, int]
    configs: dict[int, ColorConfig] = field(default_factory=dict)
    current: dict[int, int] = field(default_factory=dict)
    #: Flattened ``(color << PORT_SHIFT) | in_port -> outputs`` table of
    #: the *current* switch position of every configured color.
    #: Maintained by :meth:`configure` and :meth:`advance` (and
    #: ``Fabric.install_routes``); read directly by the event runtime's
    #: arrival hot path.
    table: dict[int, tuple[Port, ...]] = field(
        default_factory=dict, repr=False, compare=False
    )

    def configure(
        self,
        color: int,
        positions: list[RoutePosition],
        *,
        initial: int = 0,
    ) -> None:
        """Install the switch positions of *color* on this router alone
        (``Fabric.install_routes`` installs a class on many)."""
        if color in self.configs:
            raise ValueError(
                f"router {self.coord}: color {color} already configured"
            )
        cfg = self.configs[color] = ColorConfig(color, positions, initial)
        self.current[color] = initial
        self.table.update(cfg.flat[initial])

    # ------------------------------------------------------------------ #
    # Introspection (static verifier / tooling; not hot-path)
    # ------------------------------------------------------------------ #
    def configured_colors(self) -> tuple[int, ...]:
        """Colors with routing installed on this router, ascending."""
        return tuple(sorted(self.configs))

    def positions_of(self, color: int) -> list[RoutePosition]:
        """Copies of every switch position of *color* (all of them, not
        just the current one) — the static verifier's view of the full
        rotating schedule.  Empty when the color is unconfigured."""
        cfg = self.configs.get(color)
        if cfg is None:
            return []
        return [dict(pos) for pos in cfg.positions]

    def routes(self, color: int, in_port: Port) -> tuple[Port, ...]:
        """Output ports for a wavelet of *color* entering via *in_port*.

        An unconfigured color drops traffic (empty route), matching
        hardware behaviour for colors with no routing entry.
        """
        return self.table.get((color << PORT_SHIFT) | in_port, ())

    def advance(self, color: int) -> None:
        """Advance the switch position of *color* (no-op when unconfigured;
        a single position advances onto itself)."""
        cfg = self.configs.get(color)
        if cfg is None:
            return
        current, table = self.current, self.table
        drop, current[color], flat = cfg.moves[current[color]]
        for key in drop:
            del table[key]
        table.update(flat)

    def position(self, color: int) -> int:
        """Current switch position of *color*."""
        pos = self.current.get(color)
        if pos is None:
            raise KeyError(f"router {self.coord}: color {color} not configured")
        return pos
