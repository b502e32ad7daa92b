"""Channel-dependency graph over packed route tables (Dally–Seitz).

The classic wormhole-deadlock argument (Dally & Seitz 1987) models every
directed fabric link as a *channel* and draws an edge ``c1 -> c2``
whenever some router's routing function forwards traffic arriving on
``c1`` out through ``c2``.  The routing is deadlock-free iff the channel
dependency graph is acyclic.  Colors have independent buffering on the
WSE, so the graph is built per color; edges are taken over the **union of
all switch positions** — a rotating schedule (the paper's clockwise
diagonal protocol, Sec. 5.2.2) can put a router in any of its positions
when traffic arrives, so the union is the conservative envelope of every
reachable configuration.

A channel is identified by ``((x, y), out_port)`` — the directed link
leaving router ``(x, y)`` through ``out_port``.  Injection points (route
entries listening on the RAMP) seed the *fed* set: only channels some
wavelet can actually reach participate in ERROR findings, which keeps
latent-but-unfed configuration from drowning real hazards.

Bypassed columns (spare-column yield handling) are walked past on
east/west hops exactly as the event runtime's link-destination table
does, so the static graph matches what the simulator would execute.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.check.findings import Finding, Severity
from repro.wse.fabric import Fabric
from repro.wse.geometry import OFFSET, OPPOSITE, Port
from repro.wse.router import ColorConfig

__all__ = ["Channel", "ChannelGraph", "build_channel_graph", "find_deadlocks"]

#: One directed fabric link carrying one color: ``((x, y), out_port)``.
Channel = tuple[tuple[int, int], Port]


def _fmt_channel(ch: Channel) -> str:
    (x, y), port = ch
    return f"({x},{y})->{Port(port).name}"


@dataclass
class ChannelGraph:
    """The per-color channel dependency graph of one fabric.

    Attributes
    ----------
    color:
        The color this graph describes.
    edges:
        ``channel -> successor channels`` over the union of all switch
        positions.
    injectors:
        Routers with a RAMP in-port entry in some position — the places
        a PE-issued wavelet can enter this color's network.
    seeds:
        Channels fed directly from an injector's RAMP.
    fed:
        Channels reachable from the seeds (traffic can actually occupy
        them).
    delivers:
        Routers where a fed channel (or a local RAMP->RAMP route)
        terminates at the RAMP — the PEs that can receive this color.
    offchip:
        Fed channels whose link leaves the fabric (boundary exits).
    dead_ends:
        Fed channels whose destination router consumes the traffic in
        *no* switch position — wavelets are dropped silently.
    """

    color: int
    edges: dict[Channel, tuple[Channel, ...]] = field(default_factory=dict)
    injectors: set[tuple[int, int]] = field(default_factory=set)
    seeds: set[Channel] = field(default_factory=set)
    fed: set[Channel] = field(default_factory=set)
    delivers: set[tuple[int, int]] = field(default_factory=set)
    offchip: set[Channel] = field(default_factory=set)
    dead_ends: set[Channel] = field(default_factory=set)

    def arrivals(self) -> set[tuple[int, int]]:
        """Routers some fed channel terminates at (delivered or not).

        Control wavelets advance a router's switch position on *arrival*
        regardless of whether a route consumes them, so this is the set
        of routers whose schedule can be advanced remotely.
        """
        out: set[tuple[int, int]] = set()
        for (coord, port) in self.fed:
            dx, dy = OFFSET[port]
            out.add((coord[0] + dx, coord[1] + dy))
        return out


def _link_dest(
    coord: tuple[int, int],
    port: Port,
    width: int,
    height: int,
    bypass: frozenset[int],
) -> tuple[int, int] | None:
    """Destination router of the directed link, walking past bypassed
    columns on east/west hops (mirrors ``EventRuntime._dests``)."""
    dx, dy = OFFSET[port]
    nx, ny = coord[0] + dx, coord[1] + dy
    if dx and bypass:
        while 0 <= nx < width and nx in bypass:
            nx += dx
    if 0 <= nx < width and 0 <= ny < height:
        return (nx, ny)
    return None


def _union_routes(cfg: ColorConfig | None) -> dict[Port, set[Port]]:
    """``in_port -> union of output ports`` over all switch positions of
    one router's schedule (None: the router does not route the color)."""
    if cfg is None:
        return {}
    merged: dict[Port, set[Port]] = {}
    for pos in cfg.positions:
        for in_port, outs in pos.items():
            merged.setdefault(in_port, set()).update(outs)
    return merged


def build_channel_graph(fabric: Fabric, color: int) -> ChannelGraph:
    """Extract the channel dependency graph of *color* from *fabric*."""
    graph = ChannelGraph(color=color)
    width, height = fabric.width, fabric.height
    bypass = getattr(fabric, "bypass_columns", frozenset())

    # route entries, resolved once per router
    tables = {
        (index % width, index // width): _union_routes(cfg)
        for index, cfg in enumerate(fabric.color_configs(color))
    }

    # every channel the route tables claim: seeded from a RAMP or named
    # as the output of any forwarding entry
    channels: set[Channel] = set()
    for coord, table in tables.items():
        if not table:
            continue
        for in_port, outs in table.items():
            for out in outs:
                if out is Port.RAMP:
                    continue
                channels.add((coord, Port(out)))
        ramp_outs = table.get(Port.RAMP)
        if ramp_outs:
            graph.injectors.add(coord)
            for out in ramp_outs:
                if out is Port.RAMP:
                    graph.delivers.add(coord)
                else:
                    graph.seeds.add((coord, Port(out)))

    # full edge relation over all claimed channels (fed or not), so
    # latent cycles are visible too
    for channel in sorted(channels):
        coord, port = channel
        dest = _link_dest(coord, port, width, height, bypass)
        if dest is None:
            graph.edges[channel] = ()
            continue
        outs = tables[dest].get(OPPOSITE[port])
        graph.edges[channel] = tuple(
            (dest, Port(out)) for out in sorted(outs or ()) if out is not Port.RAMP
        )

    # feed propagation from the injection seeds
    pending = sorted(graph.seeds)
    fed = graph.fed
    while pending:
        channel = pending.pop()
        if channel in fed:
            continue
        fed.add(channel)
        coord, port = channel
        dest = _link_dest(coord, port, width, height, bypass)
        if dest is None:
            graph.offchip.add(channel)
            continue
        outs = tables[dest].get(OPPOSITE[port])
        if not outs:
            graph.dead_ends.add(channel)
            continue
        for out in sorted(outs):
            if out is Port.RAMP:
                graph.delivers.add(dest)
            else:
                nxt = (dest, Port(out))
                if nxt not in fed:
                    pending.append(nxt)
    return graph


def _strongly_connected(
    edges: dict[Channel, tuple[Channel, ...]],
) -> list[list[Channel]]:
    """Tarjan SCC (iterative), deterministic order, nontrivial only.

    Returns components of size > 1 plus single channels with a
    self-loop — exactly the cycle witnesses of the dependency graph.
    """
    index: dict[Channel, int] = {}
    low: dict[Channel, int] = {}
    on_stack: set[Channel] = set()
    stack: list[Channel] = []
    sccs: list[list[Channel]] = []
    counter = 0

    for root in sorted(edges):
        if root in index:
            continue
        work: list[tuple[Channel, int]] = [(root, 0)]
        while work:
            node, child_i = work[-1]
            if child_i == 0:
                index[node] = low[node] = counter
                counter += 1
                stack.append(node)
                on_stack.add(node)
            children = edges.get(node, ())
            advanced = False
            for i in range(child_i, len(children)):
                child = children[i]
                if child not in index:
                    work[-1] = (node, i + 1)
                    work.append((child, 0))
                    advanced = True
                    break
                if child in on_stack:
                    low[node] = min(low[node], index[child])
            if advanced:
                continue
            work.pop()
            if low[node] == index[node]:
                comp = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    comp.append(member)
                    if member == node:
                        break
                if len(comp) > 1 or node in edges.get(node, ()):
                    sccs.append(sorted(comp))
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
    return sccs


def find_deadlocks(
    fabric: Fabric,
    color: int,
    *,
    color_name: str | None = None,
    graph: ChannelGraph | None = None,
) -> list[Finding]:
    """Cycle search over the channel dependency graph of *color*.

    Each nontrivial strongly connected component is one finding: ERROR
    when traffic can actually reach the cycle (a wavelet entering it
    never drains and backpressure wedges the network — the hang the
    PR-3 watchdog would only catch at runtime), WARNING when the cycle
    exists in the route tables but no injector feeds it.
    """
    if graph is None:
        graph = build_channel_graph(fabric, color)
    findings: list[Finding] = []
    for comp in _strongly_connected(graph.edges):
        fed = any(ch in graph.fed for ch in comp)
        cycle = " -> ".join(_fmt_channel(ch) for ch in comp)
        first = comp[0]
        findings.append(
            Finding(
                code="deadlock-cycle",
                severity=Severity.ERROR if fed else Severity.WARNING,
                message=(
                    f"channel dependency cycle of {len(comp)} link(s): "
                    "wavelets entering it can never drain"
                    + ("" if fed else " (currently unfed)")
                ),
                coord=first[0],
                color=color,
                color_name=color_name,
                port=Port(first[1]).name,
                detail=f"cycle: {cycle}",
            )
        )
    return findings
