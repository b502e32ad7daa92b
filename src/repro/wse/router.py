"""Per-PE router: five links, per-color routing rules, switch positions.

"Each PE ... is connected to a router.  The router manages five full
duplex links" (Sec. 4).  Routing is configured per color: for every input
port, a set of output ports receives a copy of incoming wavelets (local
multicast).  A color may define several *switch positions* — alternative
routing configurations — and a control wavelet advances the position as it
traverses the router, which is how the cardinal exchange alternates a PE
between *Sending* and *Receiving* roles (Fig. 6a: "two switch positions
are defined for each PE for sending and receiving accordingly").

Route lookups are the single hottest query of the event simulator (one
per message per router traversal), so the router maintains a flattened
``key -> outputs`` table of the *current* switch positions, keyed by the
packed int ``(color << PORT_SHIFT) | in_port`` (ports fit in 3 bits).
Each color's positions are also pre-flattened once at configure time, so
:meth:`Router.advance` only pops the outgoing position's few keys and
bulk-inserts the incoming one — no per-advance rebuild.

A fabric has a handful of router roles per color (Sec. 5.2: seed edge,
even and odd distance from it; one static position per diagonal), so a
switch schedule is validated and flattened once per *class*
(:func:`prepare_route`) and installed on every router of the class
(:meth:`Router.install`).  Class-mates share the flattened positions,
which nothing writes after they are built; each router owns what can
change under it — its :class:`ColorConfig` (the ``positions`` a fault or
a test may edit in place, and the current ``position``) and its
``table``.  :meth:`Router.refresh` replaces the shared flattening with a
private one, so an edit on one router never reaches another.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.wse.geometry import Port

__all__ = ["Router", "ColorConfig", "RoutePosition", "PORT_SHIFT", "prepare_route"]

#: One routing table: input port -> tuple of output ports.
RoutePosition = dict[Port, tuple[Port, ...]]

#: Bits reserved for the port in packed ``(color << PORT_SHIFT) | port``
#: route-table keys (5 ports need 3 bits).
PORT_SHIFT = 3

#: Flattened form of one switch position: packed key -> output ports.
_FlatPosition = dict[int, tuple[Port, ...]]


@dataclass(slots=True)
class ColorConfig:
    """Routing state of one color at one router."""

    positions: list[RoutePosition]
    position: int = 0
    #: Switch position installed at configure time.  ``position`` mutates
    #: as control wavelets advance the switch; the IR capture
    #: (:func:`repro.ir.builder.build_ir`) reads ``initial`` so a program
    #: serialized after a run still round-trips its static definition.
    initial: int = -1

    def __post_init__(self) -> None:
        if not self.positions:
            raise ValueError("a color needs at least one switch position")
        if not 0 <= self.position < len(self.positions):
            raise ValueError("initial position out of range")
        if self.initial < 0:
            self.initial = self.position
        for pos in self.positions:
            for in_port, outs in pos.items():
                if in_port in outs:
                    raise ValueError(
                        f"routing loop: {in_port!r} forwards to itself"
                    )

    def routes(self, in_port: Port) -> tuple[Port, ...]:
        """Output ports for a wavelet entering via *in_port* (may be empty)."""
        return self.positions[self.position].get(in_port, ())

    def advance(self) -> None:
        """Cycle to the next switch position (control-wavelet semantics)."""
        self.position = (self.position + 1) % len(self.positions)


def _flatten(color: int, positions: list[RoutePosition]) -> list[_FlatPosition]:
    base = color << PORT_SHIFT
    return [
        {base | in_port: tuple(outs) for in_port, outs in pos.items()}
        for pos in positions
    ]


def prepare_route(
    color: int,
    positions: list[RoutePosition],
    initial: int = 0,
    *,
    allow_loops: bool = False,
) -> tuple[ColorConfig, list[_FlatPosition]]:
    """Validate and flatten one switch schedule of *color*, once.

    Returns the ``(template, flat)`` pair :meth:`Router.install` takes.
    ``allow_loops`` admits a port that forwards to itself — for the
    verifier, which must rebuild exactly what a captured IR says, bad
    routes included; the schedule's shape (at least one position, an
    initial position in range) is checked either way.
    """
    positions = list(positions)
    if allow_loops:
        template = ColorConfig([{} for _ in positions], initial)
        template.positions[:] = positions
    else:
        template = ColorConfig(positions, initial)
    return template, _flatten(color, positions)


@dataclass(slots=True)
class Router:
    """The router of one PE.

    Attributes
    ----------
    coord:
        Fabric coordinate of the owning PE.
    configs:
        Per-color routing configurations.
    """

    coord: tuple[int, int]
    configs: dict[int, ColorConfig] = field(default_factory=dict)
    #: Flattened ``(color << PORT_SHIFT) | in_port -> outputs`` table of
    #: the *current* switch position of every configured color.
    #: Maintained by :meth:`configure` and :meth:`advance`; read directly
    #: by the event runtime's arrival hot path.
    table: dict[int, tuple[Port, ...]] = field(
        default_factory=dict, repr=False, compare=False
    )
    #: Per-color pre-flattened switch positions, parallel to
    #: ``configs[color].positions``.
    _flat: dict[int, list[_FlatPosition]] = field(
        default_factory=dict, repr=False, compare=False
    )
    #: Per-color control-advance counts since construction, feeding the
    #: observability report's per-channel switch accounting (the runtime
    #: only keeps the fabric-wide total in ``RuntimeStats``).
    advance_counts: dict[int, int] = field(
        default_factory=dict, repr=False, compare=False
    )

    def configure(
        self,
        color: int,
        positions: list[RoutePosition],
        *,
        initial: int = 0,
    ) -> None:
        """Install the switch positions of *color* on this router."""
        self.install(color, *prepare_route(color, positions, initial))

    def install(
        self, color: int, template: ColorConfig, flat: list[_FlatPosition]
    ) -> None:
        """Install a schedule prepared by :func:`prepare_route`.

        *flat* is shared with every router the pair is installed on and
        is only ever read; the router's own :class:`ColorConfig` copies
        the template's positions, so they can be edited in place here
        (followed by :meth:`refresh`) without touching a class-mate.
        """
        if color in self.configs:
            raise ValueError(
                f"router {self.coord}: color {color} already configured"
            )
        # the template was validated once for the whole class: copy it
        # field by field rather than through the checking constructor
        cfg = self.configs[color] = object.__new__(ColorConfig)
        cfg.positions = list(map(dict, template.positions))
        cfg.position = template.position
        cfg.initial = template.initial
        self._flat[color] = flat
        self.table.update(flat[cfg.position])

    def _refresh(self, color: int, cfg: ColorConfig) -> None:
        """Re-flatten *color* from scratch (positions may have been edited
        in place) and reinstall its current position."""
        table = self.table
        base = color << PORT_SHIFT
        for port in Port:
            table.pop(base | port, None)
        flat = self._flat[color] = _flatten(color, cfg.positions)
        table.update(flat[cfg.position])

    def refresh(self, color: int | None = None) -> None:
        """Re-flatten the routes of *color* (all colors when None).

        The flattened table snapshots each color's switch positions; code
        that mutates a :class:`ColorConfig`'s positions in place (fault
        injection, tests) must call this to make the edit visible to
        routing.  :meth:`configure` and :meth:`advance` maintain the
        table automatically.
        """
        if color is None:
            for c, cfg in self.configs.items():
                self._refresh(c, cfg)
        else:
            cfg = self.configs.get(color)
            if cfg is None:
                raise ValueError(
                    f"router {self.coord}: cannot refresh color {color}: "
                    f"not configured here (configured colors: "
                    f"{sorted(self.configs) or 'none'})"
                )
            self._refresh(color, cfg)

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
        """Advance the switch position of *color* (no-op when single-position)."""
        cfg = self.configs.get(color)
        if cfg is None:
            return
        counts = self.advance_counts
        counts[color] = counts.get(color, 0) + 1
        flat = self._flat[color]
        table = self.table
        pos = cfg.position
        for key in flat[pos]:
            table.pop(key, None)
        pos += 1
        if pos == len(flat):
            pos = 0
        cfg.position = pos
        table.update(flat[pos])

    def position(self, color: int) -> int:
        """Current switch position of *color*."""
        cfg = self.configs.get(color)
        if cfg is None:
            raise KeyError(f"router {self.coord}: color {color} not configured")
        return cfg.position
