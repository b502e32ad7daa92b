"""Verification orchestration: one call per program, fabric, or registry.

:func:`check_fabric` runs every fabric-level analyzer (deadlock, color
conflict, dead route, switch schedule, memory audit) over a configured
:class:`~repro.wse.fabric.Fabric`.  :func:`check_ir` runs the same
analyses over a serialized :class:`~repro.ir.schema.FabricProgramIR` —
the thin-waist representation every backend is lowered from — by
materializing the IR's fabric, routes, and memory records and reusing
the fabric analyzers verbatim.  :func:`check_program` captures a built
program's IR and verifies *that*, so the verifier and the runtimes read
the same single source of truth and cannot drift.
:func:`check_examples` builds the registry of shipped example
configurations and verifies each — the CI merge gate
(`repro check --examples`) runs exactly this.
"""

from __future__ import annotations

from math import prod
from typing import Callable

import numpy as np

from repro.check.findings import CheckReport
from repro.check.graph import build_channel_graph, find_deadlocks
from repro.check.resources import (
    check_column_plan,
    check_dsd_bounds,
    check_memory,
)
from repro.check.routes import (
    check_color_conflicts,
    check_routes,
    check_switch_schedules,
)
from repro.wse.fabric import Fabric
from repro.wse.memory import WSE2_PE_MEMORY_BYTES, Scratchpad

__all__ = [
    "check_fabric",
    "check_ir",
    "check_program",
    "check_examples",
    "EXAMPLE_PROGRAMS",
    "FABRIC_ANALYZERS",
    "PROGRAM_ANALYZERS",
    "ANALYZERS",
]

#: Named fabric-level analyzers, selectable via ``repro check --only``.
FABRIC_ANALYZERS: tuple[str, ...] = (
    "deadlock", "colors", "routes", "switches", "memory",
)

#: Program-aware analyzers layered on top by :func:`check_program`.
PROGRAM_ANALYZERS: tuple[str, ...] = ("plan", "dsd")

#: Every selectable analyzer name (the ``--only``/``--skip`` universe):
#: the fabric and program analyzers above, the determinism lint, and
#: the concurrency verifiers of :mod:`repro.check.race`.
ANALYZERS: tuple[str, ...] = (
    *FABRIC_ANALYZERS,
    *PROGRAM_ANALYZERS,
    "lint",
    "race-model",
    "race-lint",
    "race-hb",
    "race-drill",
)


def _selected(only: frozenset | set | None, names: tuple[str, ...]) -> set:
    if only is None:
        return set(names)
    return set(only) & set(names)


def check_fabric(
    fabric: Fabric,
    *,
    colors: dict[int, str] | None = None,
    expected_receivers: dict[int, frozenset] | None = None,
    memory_budget: int = WSE2_PE_MEMORY_BYTES,
    subject: str = "fabric",
    only: frozenset | set | None = None,
) -> CheckReport:
    """Run the fabric-level static analyzers; no events are executed.

    ``only`` restricts to a subset of :data:`FABRIC_ANALYZERS` (``None``
    runs them all — unknown names are the CLI's problem to reject).
    """
    report = CheckReport(subject=subject)
    run = _selected(only, FABRIC_ANALYZERS)
    if colors is None:
        colors = {cid: "" for cid in sorted(fabric.configured_colors())}
    expected = expected_receivers or {}
    per_color = run & {"deadlock", "colors", "routes", "switches"}
    for color in sorted(colors) if per_color else ():
        name = colors[color] or None
        graph = build_channel_graph(fabric, color)
        if "deadlock" in run:
            report.extend(
                find_deadlocks(fabric, color, color_name=name, graph=graph)
            )
        if "colors" in run:
            report.extend(
                check_color_conflicts(fabric, color, color_name=name)
            )
        if "routes" in run:
            report.extend(
                check_routes(
                    fabric,
                    color,
                    color_name=name,
                    expected_receivers=expected.get(color),
                    graph=graph,
                )
            )
        if "switches" in run:
            report.extend(
                check_switch_schedules(
                    fabric, color, color_name=name, graph=graph
                )
            )
    if "memory" in run:
        report.extend(check_memory(fabric, budget=memory_budget))
    return report


def _materialize_fabric(ir) -> Fabric:
    """Rebuild a live :class:`Fabric` from an IR's static definition.

    Route classes are installed with ``allow_loops``: a captured IR may
    describe a *corrupted* fabric (e.g. a self-forwarding port) that
    :class:`~repro.wse.router.ColorConfig` would reject at configure
    time — the verifier must be able to materialize exactly what the IR
    says, bad routes included, so its findings match findings on the
    live broken object.
    """
    fabric = Fabric(
        ir.width,
        ir.height,
        pe_memory_bytes=ir.pe_memory_bytes,
        pe_memory_reserved=ir.pe_memory_reserved,
        vectorized=ir.vectorized,
        bypass_columns=ir.bypass_columns,
    )
    for color in ir.route_color_ids():
        fabric.install_routes(color, *ir.route_table(color), allow_loops=True)
    memory = ir.doc["memory"]
    members: dict[int, list] = {}  # memory class -> its PEs, row-major
    for coord, idx in zip(fabric.pe_map, memory["assignment"]):
        if idx >= 0:
            members.setdefault(idx, []).append(coord)
    for idx, coords in members.items():
        probe = Scratchpad(ir.pe_memory_bytes, reserved=ir.pe_memory_reserved)
        for rec in memory["classes"][idx]:
            if rec.get("alias_of"):
                probe.alias(rec["name"], rec["alias_of"])
            else:
                probe.alloc_array(
                    rec["name"], tuple(rec["shape"]), np.dtype(rec["dtype"])
                )
        fabric.install_memory(probe.plan(), coords)
    return fabric


def _dsd_extents_from_ir(ir) -> dict:
    """``check_dsd_bounds`` extents of every PE, from the IR's memory
    records: ``(nz, send words, {connection: receive words})``, a
    missing record counting 0 words."""
    from repro.dataflow.halos import train_names

    send, recv = train_names(reuse_buffers=ir.params["reuse_buffers"])
    extents: dict = {}
    for coord in ir.memory_coords():
        words = {
            rec["name"]: prod(rec["shape"]) for rec in ir.memory_records_for(coord)
        }
        extents[coord] = (
            ir.mesh_shape[2],
            words.get(send, 0),
            {conn: words.get(name, 0) for conn, name in recv.items()},
        )
    return extents


def check_ir(
    ir,
    *,
    subject: str | None = None,
    only: frozenset | set | None = None,
    memory_budget: int = WSE2_PE_MEMORY_BYTES,
) -> CheckReport:
    """Verify a :class:`~repro.ir.schema.FabricProgramIR` directly.

    The IR's fabric, switch schedules, and memory records are
    materialized and the fabric analyzers run on the result; program
    IRs additionally get the column-plan and DSD-bounds checks from the
    IR's mesh/params blocks.  A bare-fabric IR (kind ``"fabric"``) runs
    the fabric analyses only.
    """
    from repro.ir.schema import KIND_PROGRAM

    fabric = _materialize_fabric(ir)
    colors = ir.colors or None
    expected = {
        color: frozenset(map(tuple, ir.expected_receivers(color)))
        for color in ir.route_color_ids()
        if ir.expected_receivers(color)
    }
    report = check_fabric(
        fabric,
        colors=colors,
        expected_receivers=expected or None,
        memory_budget=memory_budget,
        subject=subject or f"program on {fabric.width}x{fabric.height}",
        only=only,
    )
    if ir.kind != KIND_PROGRAM:
        return report
    run = _selected(only, PROGRAM_ANALYZERS)
    if "plan" in run:
        report.extend(
            check_column_plan(
                ir.mesh_shape[2],
                capacity_bytes=WSE2_PE_MEMORY_BYTES,
                reserved_bytes=ir.pe_memory_reserved,
                reuse_buffers=ir.params["reuse_buffers"],
            )
        )
    if "dsd" in run:
        report.extend(check_dsd_bounds(_dsd_extents_from_ir(ir)))
    return report


def check_program(
    program,
    *,
    subject: str | None = None,
    only: frozenset | set | None = None,
) -> CheckReport:
    """Verify a built :class:`~repro.dataflow.program.FluxProgram`.

    The program's IR is captured (:func:`repro.ir.builder.build_ir`) and
    verified through :func:`check_ir` — the verifier sees exactly the
    representation the backends are lowered from.  Fabric-level analyses
    plus the program-aware ones: every expected receiver must be
    reachable, DSD descriptors must agree on train sizes, and the
    Z-column plan must fit the WSE-2 memory model even when the
    simulated fabric was built with a roomier scratchpad.  ``only``
    selects among :data:`FABRIC_ANALYZERS` + :data:`PROGRAM_ANALYZERS`.
    """
    from repro.ir.builder import build_ir

    ir = build_ir(program)
    return check_ir(
        ir, subject=subject or f"program on {ir.width}x{ir.height}", only=only
    )


# ------------------------------------------------------------------ #
# Shipped example programs
# ------------------------------------------------------------------ #
def _flux_program(nx: int, ny: int, nz: int, **kwargs):
    from repro.core import CartesianMesh3D, FluidProperties
    from repro.dataflow.program import FluxProgram

    return FluxProgram(CartesianMesh3D(nx, ny, nz), FluidProperties(), **kwargs)


def _remap_program(nx: int, ny: int, nz: int, dead):
    from repro.dataflow.mapping import SpareColumnRemap

    remap = SpareColumnRemap.around_dead_pes((nx, ny), dead)
    return _flux_program(nx, ny, nz, remap=remap)


#: name -> zero-argument factory building the example's fabric program.
#: Mirrors the configurations exercised by the scripts in ``examples/``
#: (mesh shapes and program variants), kept small enough that the whole
#: registry verifies in seconds — the CI gate and the tracked
#: ``verifier`` bench entry iterate exactly this table.
EXAMPLE_PROGRAMS: dict[str, Callable[[], object]] = {
    "quickstart-10x8x6": lambda: _flux_program(10, 8, 6),
    "communication-trace-6x5x4": lambda: _flux_program(6, 5, 4),
    "no-reuse-ablation-6x5x4": lambda: _flux_program(
        6, 5, 4, reuse_buffers=False
    ),
    "no-overlap-ablation-5x4x3": lambda: _flux_program(
        5, 4, 3, reuse_buffers=False, overlap_compute=False
    ),
    "comm-only-table3-6x6x4": lambda: _flux_program(
        6, 6, 4, compute_fluxes=False
    ),
    "spare-column-remap-6x5x4": lambda: _remap_program(6, 5, 4, [(2, 1)]),
    "weak-scaling-16x16x8": lambda: _flux_program(16, 16, 8),
}


def check_examples(
    names: list[str] | None = None,
    *,
    only: frozenset | set | None = None,
) -> dict[str, CheckReport]:
    """Build and verify every registered example program."""
    selected = names or sorted(EXAMPLE_PROGRAMS)
    out: dict[str, CheckReport] = {}
    for name in selected:
        try:
            factory = EXAMPLE_PROGRAMS[name]
        except KeyError:
            raise KeyError(
                f"unknown example program {name!r} "
                f"(registered: {sorted(EXAMPLE_PROGRAMS)})"
            ) from None
        out[name] = check_program(
            factory(), subject=f"example {name}", only=only
        )
    return out
