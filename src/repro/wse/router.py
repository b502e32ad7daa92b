"""Routers: five links, per-color routing rules, switch positions.

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
router's *route signature* is the tuple of its per-color class indices
(16 signatures at 24x24), and its whole switch state — every color's
position at once — is one of the states its signature can reach.

:class:`SwitchTables` holds those states once per fabric: per state the
flattened ``(color << PORT_SHIFT) | in_port -> outputs`` table (route
lookups are the single hottest query of the event simulator) and its
successor per color; per router one integer, its current state, and
the bound ``get`` of that state's table.  A control advance moves the
integer and rebinds the ``get`` — routers in one state share one table
and nothing writes it.  The schedule lives in the class's
:class:`ColorConfig` (what the IR capture and ``repro check`` read), the
position in the router's state integer (what :meth:`SwitchTables.advance`
and the event runtime's drain loop, which inlines it, write).

:class:`Router` is a view of one router of a fabric, built on demand for
the verifier, tooling and tests; nothing on the event path builds one.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from itertools import product

from repro.wse.geometry import Port

__all__ = ["Router", "ColorConfig", "RoutePosition", "SwitchTables", "PORT_SHIFT"]

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
        self.flat = tuple([
            {base | in_port: tuple(outs) for in_port, outs in pos.items()}
            for pos in self.positions
        ])


class SwitchTables:
    """Every switch state of a fabric's routers, built once per signature.

    Parameters
    ----------
    routes:
        ``color -> (class configs, assignment)``: per color the
        :class:`ColorConfig` of each class (``None`` for a class no
        router uses) and the row-major class index of every router
        (``-1``: the router does not configure the color).
    n_routers:
        Routers of the fabric.
    previous:
        The tables these replace (routes installed after those were
        built): every router keeps the positions it had reached.

    A signature's states are the mixed-radix product of its colors'
    positions, the first color varying fastest; state ``first[s] + k``
    is local state ``k`` of signature ``s``.  Colors with one position
    never move, so only multi-position colors have a step: an advance of
    any other color (or of an unconfigured one) changes nothing.
    """

    __slots__ = (
        "signature_of", "parts", "first", "initial",
        "tables", "gets", "steps", "state", "route_gets",
    )

    def __init__(self, routes: dict, n_routers: int, previous=None) -> None:
        colors = sorted(routes)
        columns = [routes[color][1] for color in colors]
        ids: dict[tuple, int] = {}
        #: Per router: the index of its signature.
        self.signature_of = (
            [ids.setdefault(key, len(ids)) for key in zip(*columns)]
            if columns
            else [ids.setdefault((), 0)] * n_routers
        )
        #: Per signature: ``(color, ColorConfig, stride)`` of each color
        #: it configures, ascending.
        self.parts = []
        self.first, self.initial = [], []
        #: Per state: its flattened route table (one object per distinct
        #: table: 16 serve the 256 states at 24x24), that table's bound
        #: ``get``, and ``color -> step`` to the successor state of each
        #: moving color (shared by the states that step alike).
        self.tables, self.gets, self.steps = [], [], []
        interned = _Interned()
        for key in ids:
            parts, stride = [], 1
            for color, idx in zip(colors, key):
                if idx >= 0:
                    cfg = routes[color][0][idx]
                    parts.append((color, cfg, stride))
                    stride *= len(cfg.positions)
            self._add_signature(parts, interned)
        #: Per router: its current state, and that state's bound ``get``.
        self.state = list(map(self.initial.__getitem__, self.signature_of))
        if previous is not None:
            self._keep_positions(previous)
        self.route_gets = list(map(self.gets.__getitem__, self.state))

    def _add_signature(self, parts: list, interned: "_Interned") -> None:
        first = len(self.tables)
        initial = first
        static, ids_of, moving = [], [], []
        for color, cfg, stride in parts:
            initial += cfg.initial * stride
            ids = interned.by_config.get(id(cfg))
            if ids is None:
                ids = interned.positions(cfg)
            if len(ids) == 1:
                static.append(ids[0])
            else:
                # in reverse: product() runs its last factor fastest,
                # and the first color's stride is the smallest
                ids_of.insert(0, ids)
                moving.insert(0, (color, len(ids), stride))
        self.parts.append(parts)
        self.first.append(first)
        self.initial.append(initial)
        # per state in order: the position ids naming its table (the
        # interning is inlined, a call per state is a frame) and its
        # steps, the same for every signature whose colors move alike
        static = tuple(static)
        keys = [static + ids for ids in product(*ids_of)]
        tables = interned.tables
        for key in keys:
            if key not in tables:
                interned.table(key)
        moving = tuple(moving)
        steps = interned.steps.get(moving)
        if steps is None:
            steps = interned.step_list(moving)
        self.tables.extend(map(tables.__getitem__, keys))
        self.gets.extend(map(interned.gets.__getitem__, keys))
        self.steps.extend(steps)

    def _keep_positions(self, previous: "SwitchTables") -> None:
        for index, (old, sig) in enumerate(zip(previous.state, previous.signature_of)):
            if old == previous.initial[sig]:
                continue
            here = self.signature_of[index]
            state = self.initial[here]
            for color, cfg, stride in self.parts[here]:
                pos = previous.position(index, color)
                if pos is not None:
                    state += (pos - cfg.initial) * stride
            self.state[index] = state

    # ------------------------------------------------------------------ #
    def advance(self, index: int, color: int) -> None:
        """Advance router *index*'s switch position of *color* (no-op when
        unconfigured; a single position advances onto itself).  The
        event runtime's drain loop inlines this body."""
        state = self.state[index]
        step = self.steps[state].get(color)
        if step is not None:
            state = self.state[index] = state + step
            self.route_gets[index] = self.gets[state]

    def position(self, index: int, color: int) -> int | None:
        """Router *index*'s current position of *color*, or None."""
        sig = self.signature_of[index]
        local = self.state[index] - self.first[sig]
        for c, cfg, stride in self.parts[sig]:
            if c == color:
                return local // stride % len(cfg.positions)
        return None


class _Interned:
    """Switch positions, merged tables and steps by content, while one
    :class:`SwitchTables` is built: equal positions of different classes
    (the even- and odd-distance roles swap theirs) get one id, states
    whose positions have equal ids share one table, and signatures whose
    colors move alike share one list of ``color -> step`` dicts."""

    __slots__ = ("ids", "by_config", "flats", "tables", "gets", "steps")

    def __init__(self) -> None:
        self.ids: dict[frozenset, int] = {}
        #: ``id(ColorConfig)`` -> the content ids of its positions
        self.by_config: dict[int, tuple[int, ...]] = {}
        self.flats: list[_FlatPosition] = []
        #: position ids -> the merged table, and its bound ``get``
        self.tables: dict[tuple[int, ...], _FlatPosition] = {}
        self.gets: dict[tuple[int, ...], object] = {}
        #: ``((color, positions, stride), ...)`` of the moving colors,
        #: last color first -> per local state its steps
        self.steps: dict[tuple, list[dict[int, int]]] = {}

    def positions(self, cfg: ColorConfig) -> tuple[int, ...]:
        """The content ids of *cfg*'s flattened positions, in order."""
        ids = []
        for flat in cfg.flat:
            i = self.ids.setdefault(frozenset(flat.items()), len(self.flats))
            if i == len(self.flats):
                self.flats.append(flat)
            ids.append(i)
        ids = self.by_config[id(cfg)] = tuple(ids)
        return ids

    def table(self, key: tuple[int, ...]) -> None:
        """Merge the table of the positions *key* names."""
        table = self.tables[key] = {}
        for i in key:
            table.update(self.flats[i])
        self.gets[key] = table.get

    def step_list(self, moving: tuple) -> list[dict[int, int]]:
        """Per local state of colors *moving*: ``color -> step``."""
        options = [
            [(color, stride if pos + 1 < n else -(n - 1) * stride) for pos in range(n)]
            for color, n, stride in moving
        ]
        steps = self.steps[moving] = [dict(state) for state in product(*options)]
        return steps


class Router:
    """A view of the router of one PE on *fabric* (built on demand).

    Reads the fabric's class tables for the schedule and its
    :class:`SwitchTables` for the current positions; :meth:`advance`
    moves the router's state there.
    """

    __slots__ = ("fabric", "index", "coord")

    def __init__(self, fabric, index: int) -> None:
        self.fabric = fabric
        self.index = index
        self.coord = (index % fabric.width, index // fabric.width)

    def __repr__(self) -> str:
        return f"Router(coord={self.coord})"

    def configure(
        self,
        color: int,
        positions: list[RoutePosition],
        *,
        initial: int = 0,
    ) -> None:
        """Install the switch positions of *color* on this router alone
        (``Fabric.install_routes`` installs a class on many)."""
        assignment = [-1] * self.fabric.num_pes
        assignment[self.index] = 0
        self.fabric.install_routes(color, [(positions, initial)], assignment)

    # ------------------------------------------------------------------ #
    # Introspection (static verifier / tooling; not hot-path)
    # ------------------------------------------------------------------ #
    def config(self, color: int) -> ColorConfig | None:
        """The route class schedule of *color* here (shared with the
        class-mates, read-only), or None when unconfigured."""
        return self.fabric.color_config(color, self.index)

    def configured_colors(self) -> tuple[int, ...]:
        """Colors with routing installed on this router, ascending."""
        tables = self.fabric.switch_tables()
        sig = tables.signature_of[self.index]
        return tuple(color for color, _cfg, _s in tables.parts[sig])

    def positions_of(self, color: int) -> list[RoutePosition]:
        """Copies of every switch position of *color* (all of them, not
        just the current one) — the static verifier's view of the full
        rotating schedule.  Empty when the color is unconfigured."""
        cfg = self.config(color)
        if cfg is None:
            return []
        return [dict(pos) for pos in cfg.positions]

    @property
    def table(self) -> _FlatPosition:
        """The flattened table of the router's current switch state:
        shared by every router in that state, read-only."""
        tables = self.fabric.switch_tables()
        return tables.tables[tables.state[self.index]]

    def routes(self, color: int, in_port: Port) -> tuple[Port, ...]:
        """Output ports for a wavelet of *color* entering via *in_port*.

        An unconfigured color drops traffic (empty route), matching
        hardware behaviour for colors with no routing entry.
        """
        return self.table.get((color << PORT_SHIFT) | in_port, ())

    def advance(self, color: int) -> None:
        """Advance the switch position of *color* (no-op when unconfigured;
        a single position advances onto itself)."""
        self.fabric.switch_tables().advance(self.index, color)

    def position(self, color: int) -> int:
        """Current switch position of *color*."""
        pos = self.fabric.switch_tables().position(self.index, color)
        if pos is None:
            raise KeyError(f"router {self.coord}: color {color} not configured")
        return pos
