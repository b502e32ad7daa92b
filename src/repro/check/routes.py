"""Color-conflict and dead-route analysis over router configurations.

Four families of findings, all computed statically from the switch
positions (no event execution):

* **color conflicts** — within one switch position, two different input
  ports forwarding the same color to the same output port.  The two
  wavelet streams interleave nondeterministically on the shared link,
  which breaks the train framing the flux protocol relies on; on
  hardware the result is garbled columns, not an error.
* **dead routes** — a fed channel whose destination router consumes the
  color in *no* switch position: traffic is silently dropped (the
  hardware behaviour for an unconfigured color).  Boundary exits
  (routes leaving the fabric) are reported separately at INFO severity
  because the paper's broadcast protocol legitimately lets edge
  transmissions fall off the fabric.
* **unreachable receivers** — PEs the program *expects* to receive a
  color (program-graph knowledge) that no fed channel can deliver to.
* **stale switch schedules** — routers with more than one distinct
  switch position that neither inject the color themselves nor can be
  reached by any fed channel: no control wavelet can ever advance the
  schedule, so the router is frozen in its initial position (the
  "switch command that never fires" hazard of Sec. 5.2.1).

:func:`check_cross_program_conflicts` covers the multi-program case:
two programs mapped onto overlapping fabric regions claiming the same
color on the same directed link.
"""

from __future__ import annotations

from repro.check.findings import Finding, Severity
from repro.check.graph import Channel, ChannelGraph, build_channel_graph
from repro.wse.fabric import Fabric
from repro.wse.geometry import Port

__all__ = [
    "check_color_conflicts",
    "check_routes",
    "check_switch_schedules",
    "claimed_links",
    "check_cross_program_conflicts",
]


def _fmt(coord: tuple[int, int], port: Port) -> str:
    return f"({coord[0]},{coord[1]})->{port.name}"


def _schedules(fabric: Fabric, color: int) -> list:
    """``(coord, schedule)`` of every router routing *color*, in
    coordinate order (``x`` first)."""
    width, configs = fabric.width, fabric.color_configs(color)
    return [
        ((x, y), configs[y * width + x])
        for x in range(width)
        for y in range(fabric.height)
        if configs[y * width + x] is not None
    ]


def check_color_conflicts(
    fabric: Fabric, color: int, *, color_name: str | None = None
) -> list[Finding]:
    """Two input ports merging onto one output link in one position."""
    findings: list[Finding] = []
    for coord, cfg in _schedules(fabric, color):
        for pos_i, pos in enumerate(cfg.positions):
            claimed: dict[Port, list[Port]] = {}
            for in_port, outs in sorted(pos.items()):
                for out in outs:
                    if out is Port.RAMP:
                        # many-to-one delivery at the RAMP is a legitimate
                        # gather; only fabric links carry framed trains
                        continue
                    claimed.setdefault(Port(out), []).append(Port(in_port))
            for out, sources in sorted(claimed.items()):
                if len(sources) < 2:
                    continue
                srcs = ", ".join(p.name for p in sources)
                findings.append(
                    Finding(
                        code="color-conflict",
                        severity=Severity.ERROR,
                        message=(
                            f"switch position {pos_i} merges {len(sources)} "
                            f"input streams ({srcs}) onto one output: "
                            "wavelet trains interleave nondeterministically"
                        ),
                        coord=coord,
                        color=color,
                        color_name=color_name,
                        port=out.name,
                        detail=(
                            f"position {pos_i}: "
                            + "; ".join(f"{p.name}->{out.name}" for p in sources)
                        ),
                    )
                )
    return findings


def check_routes(
    fabric: Fabric,
    color: int,
    *,
    color_name: str | None = None,
    expected_receivers: frozenset[tuple[int, int]] | None = None,
    graph: ChannelGraph | None = None,
) -> list[Finding]:
    """Dead routes, boundary exits, and unreachable expected receivers."""
    if graph is None:
        graph = build_channel_graph(fabric, color)
    findings: list[Finding] = []

    for channel in sorted(graph.dead_ends):
        coord, port = channel
        dest = (coord[0] + port.offset[0], coord[1] + port.offset[1])
        findings.append(
            Finding(
                code="dead-route",
                severity=Severity.ERROR,
                message=(
                    f"traffic reaching PE {dest} via this link is consumed "
                    "in no switch position: wavelets dropped silently"
                ),
                coord=coord,
                color=color,
                color_name=color_name,
                port=port.name,
                detail=f"fed channel {_fmt(coord, port)} terminates at no ramp",
            )
        )

    if graph.offchip:
        # boundary exits are by-design in the broadcast protocol; one
        # aggregated INFO per color keeps them visible without noise
        sample = sorted(graph.offchip)[0]
        findings.append(
            Finding(
                code="offchip-exit",
                severity=Severity.INFO,
                message=(
                    f"{len(graph.offchip)} fed link(s) leave the fabric "
                    "(boundary broadcast exits)"
                ),
                coord=sample[0],
                color=color,
                color_name=color_name,
                port=sample[1].name,
                detail="e.g. " + _fmt(*sample),
            )
        )

    if expected_receivers:
        missing = sorted(expected_receivers - graph.delivers)
        for coord in missing:
            findings.append(
                Finding(
                    code="unreachable-pe",
                    severity=Severity.ERROR,
                    message=(
                        "program expects this PE to receive the color but "
                        "no fed route delivers it to the RAMP"
                    ),
                    coord=coord,
                    color=color,
                    color_name=color_name,
                    detail=(
                        f"{len(graph.delivers)} PE(s) reachable, "
                        f"{len(missing)} expected receiver(s) unreachable"
                    ),
                )
            )
    return findings


def check_switch_schedules(
    fabric: Fabric,
    color: int,
    *,
    color_name: str | None = None,
    graph: ChannelGraph | None = None,
) -> list[Finding]:
    """Multi-position routers whose schedule can never advance.

    A router's switch position advances when a control wavelet of the
    color *arrives* (via a link or its own RAMP).  A router holding two
    or more distinct positions that is neither an injector nor reachable
    by any fed channel is frozen in its initial position forever — the
    alternating Sending/Receiving protocol of Sec. 5.2.1 silently
    degenerates to whatever the initial position routes.
    """
    if graph is None:
        graph = build_channel_graph(fabric, color)
    arrivals = graph.arrivals()
    findings: list[Finding] = []
    for coord, cfg in _schedules(fabric, color):
        if len(cfg.positions) < 2:
            continue
        distinct = {
            tuple(sorted((p, tuple(outs)) for p, outs in pos.items()))
            for pos in cfg.positions
        }
        if len(distinct) < 2:
            # e.g. the seed-edge PE's two identical Sending positions:
            # flips are deliberate no-ops (cardinal protocol)
            continue
        if coord in graph.injectors or coord in arrivals:
            continue
        findings.append(
            Finding(
                code="switch-stale",
                severity=Severity.ERROR,
                message=(
                    f"{len(cfg.positions)} switch positions but no control "
                    "wavelet can ever reach this router: schedule frozen in "
                    f"initial position {cfg.initial}"
                ),
                coord=coord,
                color=color,
                color_name=color_name,
                detail=(
                    "router is not an injector and no fed channel of this "
                    "color arrives here"
                ),
            )
        )
    return findings


# ------------------------------------------------------------------ #
# Cross-program link claims
# ------------------------------------------------------------------ #
def claimed_links(fabric: Fabric, color: int) -> set[Channel]:
    """Directed links some switch position of *color* transmits on."""
    graph = build_channel_graph(fabric, color)
    return set(graph.edges)


def check_cross_program_conflicts(
    programs: list[tuple[str, Fabric, int]],
    *,
    color_names: dict[int, str] | None = None,
) -> list[Finding]:
    """Two co-resident programs claiming one color on one link.

    ``programs`` is a list of ``(name, fabric, color)`` claims mapped
    onto the same physical fabric region (all coordinates in one frame).
    Any directed link claimed for the same color by more than one
    program is an ERROR: the hardware cannot tell the programs' wavelets
    apart, so each would consume the other's traffic.
    """
    owners: dict[tuple[Channel, int], list[str]] = {}
    for name, fabric, color in programs:
        for channel in claimed_links(fabric, color):
            owners.setdefault((channel, color), []).append(name)
    findings: list[Finding] = []
    names = color_names or {}
    for (channel, color), claimants in sorted(owners.items()):
        if len(claimants) < 2:
            continue
        coord, port = channel
        findings.append(
            Finding(
                code="color-conflict",
                severity=Severity.ERROR,
                message=(
                    f"programs {', '.join(sorted(claimants))} all claim this "
                    "color on one directed link"
                ),
                coord=coord,
                color=color,
                color_name=names.get(color),
                port=port.name,
                detail=f"link {_fmt(coord, port)}",
            )
        )
    return findings
