"""Constructing :class:`~repro.ir.schema.FabricProgramIR`.

Two independent construction paths that must agree:

* :func:`derive_ir` — the *compiler* path: closed-form derivation from a
  mesh and program parameters: :func:`derive_exchange` (the exchange
  every fabric program shares, from the channel/switch formulas of
  :mod:`repro.dataflow.cardinal`/``diagonal``) plus one throwaway
  :class:`~repro.dataflow.halos.PEColumnLayout` probe for the memory
  plan.  No fabric is built and nothing is evaluated per PE — a cardinal
  channel's behaviour depends on the distance from its seed edge only,
  so the formulas run along one line of cells per channel and NumPy
  broadcasts the result; this is the cheap path every IR-lowered backend
  takes at startup.
* :func:`build_ir` — the *capture* path: read every router's installed
  switch schedule, every scratchpad's allocation records, and every PE's
  injector set off a live :class:`~repro.dataflow.program.FluxProgram`.

On a healthy program ``derive_ir(...) == build_ir(program)`` byte for
byte — a testable invariant that pins the compiler to the runtime.  The
capture path additionally works on *broken* fabrics
(:func:`ir_from_fabric`), which is how ``repro check`` findings on the
IR can match findings on a live corrupted program.
"""

from __future__ import annotations

import numpy as np

from repro.core.stencil import EXCHANGE_PLAN
from repro.dataflow.cardinal import (
    CARDINAL_CHANNELS,
    is_step1_sender,
    switch_positions_for,
)
from repro.dataflow.diagonal import DIAGONAL_CHANNELS, static_position
from repro.dataflow.halos import PEColumnLayout
from repro.ir.schema import (
    IR_SCHEMA_VERSION,
    KIND_FABRIC,
    KIND_PROGRAM,
    FabricProgramIR,
    encode_position,
    scatter,
)
from repro.obs.spans import span
from repro.wse.memory import WSE2_PE_MEMORY_BYTES, Scratchpad

__all__ = ["build_ir", "derive_exchange", "derive_ir", "ir_from_fabric"]


def _contracts_doc() -> dict:
    return {
        "exchange_plan": [
            {
                "phase": phase,
                "connections": [c.name for c in connections],
                "hops": hops,
            }
            for connections, hops, phase in EXCHANGE_PLAN
        ],
        "fold": "per-pe-arrival-order",
        "determinism": "single-stream-event-order",
    }


class _ClassTable:
    """Deduplicating class table: identical entries share one index.

    Interning is keyed on a cheap canonical tuple, not a JSON dump of
    the entry — the JSON doc is only materialized the first time a class
    is seen, a handful of times on a regular fabric.  Indices follow
    first appearance, so both construction paths must present entries
    in row-major fabric order to number their classes alike.
    """

    def __init__(self):
        self.classes: list = []
        self._index: dict = {}

    def intern(self, key, make_doc) -> int:
        idx = self._index.get(key)
        if idx is None:
            idx = self._index[key] = len(self.classes)
            self.classes.append(make_doc())
        return idx


def _route_key(positions, initial: int) -> tuple:
    """Canonical hashable key of a route class.

    Two (positions, initial) pairs share a key iff their
    :func:`_route_class_doc` serializations are byte-identical: keys are
    built from the Port members themselves (name lookup is deferred to
    doc construction), with multi-entry positions canonicalized by the
    same port-name order :func:`encode_position` serializes in.
    """
    parts = []
    for pos in positions:
        items = pos.items()
        if len(pos) > 1:
            items = sorted(items, key=lambda kv: kv[0].name)
        parts.append(tuple(items))
    return (int(initial), tuple(parts))


def _route_class_doc(positions, initial: int) -> dict:
    return {
        "initial": int(initial),
        "positions": [encode_position(pos) for pos in positions],
    }


def _memory_key(records: list[dict]) -> tuple:
    """Canonical hashable key of a memory class (allocation-order tuple)."""
    return tuple(
        (r["name"], tuple(r["shape"]), r["dtype"], r.get("alias_of"))
        for r in records
    )


def _memory_records(memory: Scratchpad) -> list[dict]:
    """Allocation records of one scratchpad, in allocation order."""
    records: list[dict] = []
    by_span: dict[tuple[int, int], str] = {}
    for name in memory.names():
        alloc = memory.get(name)
        rec = {
            "name": name,
            "shape": list(alloc.array.shape),
            "dtype": str(alloc.array.dtype),
        }
        span = (alloc.offset, alloc.nbytes)
        prior = by_span.get(span)
        if prior is not None and prior != name:
            rec["alias_of"] = prior
        else:
            by_span[span] = name
        records.append(rec)
    return records


def _remap_doc(remap) -> dict | None:
    if remap is None:
        return None
    return {
        "logical_width": remap.logical_width,
        "height": remap.height,
        "physical_width": remap.physical_width,
        "column_map": list(remap.column_map),
    }


def _base_doc(kind: str) -> dict:
    return {
        "schema": IR_SCHEMA_VERSION,
        "kind": kind,
        "colors": [],
        "routes": {},
        "expected_receivers": {},
        "injectors": {},
        "annotations": {},
    }


def _flags(coords, fabric) -> list[int]:
    """Row-major 0/1 list with a 1 at every ``(x, y)`` in *coords*."""
    return scatter(((c, 1) for c in coords), fabric.width, fabric.height, 0)


def _columns(nx: int, remap) -> tuple[int, np.ndarray]:
    """(fabric width, physical fabric column of each logical column)."""
    if remap is None:
        return nx, np.arange(nx)
    return remap.physical_width, np.array(remap.column_map)


def _expected_receivers_doc(nx: int, ny: int, remap, channels, color_of) -> dict:
    """``color id -> 0/1 receiver list`` from the mesh stencil.

    A PE receives a channel's color iff its ``delivers`` neighbour is in
    bounds: a rectangle of logical cells, trimmed on the sides the offset
    points out of and scattered to the physical columns hosting it.
    """
    width, columns = _columns(nx, remap)
    out: dict[str, list] = {}
    for channel in channels:
        dx, dy, _ = channel.delivers.offset
        flags = np.zeros((ny, width), dtype=np.int8)
        flags[
            max(0, -dy) : ny - max(0, dy),
            columns[max(0, -dx) : nx - max(0, dx)],
        ] = 1
        out[str(color_of(channel.name))] = flags.ravel().tolist()
    return out


# --------------------------------------------------------------------- #
# Derivation (closed form, no fabric)
# --------------------------------------------------------------------- #
def _derive_cardinal(channel, nx: int, ny: int):
    """``(classes, ids, senders)`` of one cardinal channel: its route-class
    table and, per logical cell, the class index and the step-1 sender
    flag — two arrays that broadcast to ``(ny, nx)``.

    Switch schedule and sender role depend on the distance from the
    channel's seed edge only, so the formulas of
    :mod:`repro.dataflow.cardinal` are evaluated along one line of cells.
    Walking that line outward from the origin numbers the classes by
    first appearance in row-major order, as the capture path does.
    """
    dx, _dy, _dz = channel.delivers.offset
    line = [(i, 0) for i in range(nx)] if dx else [(0, i) for i in range(ny)]
    table = _ClassTable()
    ids, senders = [], []
    for cell in line:
        positions, initial = switch_positions_for(cell, channel, nx, ny)
        ids.append(
            table.intern(
                _route_key(positions, initial),
                lambda: _route_class_doc(positions, initial),
            )
        )
        senders.append(is_step1_sender(cell, channel, nx, ny))
    shape = (1, nx) if dx else (ny, 1)
    return (
        table.classes,
        np.array(ids, dtype=np.int8).reshape(shape),
        np.array(senders, dtype=np.int8).reshape(shape),
    )


def _per_pe(nx: int, ny: int, remap, values, fill: int) -> list[int]:
    """Row-major fabric list of per-logical-cell *values* (anything
    broadcastable to ``(ny, nx)``), *fill* on bypassed columns."""
    width, columns = _columns(nx, remap)
    grid = np.full((ny, width), fill, dtype=np.int8)
    grid[:, columns] = values
    return grid.ravel().tolist()


def derive_exchange(nx: int, ny: int, *, remap=None) -> FabricProgramIR:
    """Derive the Sec. 5.2 exchange of an ``nx x ny`` program, the part
    every fabric program shares — no fabric built, no kernel needed: a
    kind-``"fabric"`` IR of colors, route classes, receiver and injector
    sets, the exchange-plan contract and the remap, with an empty memory
    table.  No Python work is done per PE: the channel formulas run along
    one line per cardinal channel (O(nx + ny) calls) and every per-PE
    list is a NumPy broadcast.  Opens no span (it is part of
    ``ir.derive`` when :func:`derive_ir` asks)."""
    width = _columns(nx, remap)[0]
    doc = _base_doc(KIND_FABRIC)
    doc["fabric"] = {
        "width": width,
        "height": ny,
        "bypass_columns": sorted(remap.bypassed_columns) if remap else [],
    }
    doc["contracts"] = _contracts_doc()
    doc["remap"] = _remap_doc(remap)

    channels = (*CARDINAL_CHANNELS, *DIAGONAL_CHANNELS)
    doc["colors"] = [
        {"id": cid, "name": ch.name} for cid, ch in enumerate(channels)
    ]
    color_of = {ch.name: cid for cid, ch in enumerate(channels)}

    routes: dict[str, dict] = {}
    injectors: dict[str, list] = {}
    for channel in CARDINAL_CHANNELS:
        classes, ids, senders = _derive_cardinal(channel, nx, ny)
        routes[str(color_of[channel.name])] = {
            "classes": classes,
            "assignment": _per_pe(nx, ny, remap, ids, -1),
        }
        injectors[channel.name] = _per_pe(nx, ny, remap, senders, 0)
    # a diagonal is one static position, injected by every program PE
    for channel in DIAGONAL_CHANNELS:
        routes[str(color_of[channel.name])] = {
            "classes": [_route_class_doc([static_position(channel)], 0)],
            "assignment": _per_pe(nx, ny, remap, 0, -1),
        }
        injectors[channel.name] = _per_pe(nx, ny, remap, 1, 0)
    doc["routes"] = routes
    doc["injectors"] = injectors

    doc["expected_receivers"] = _expected_receivers_doc(
        nx, ny, remap, channels, color_of.__getitem__
    )
    doc["memory"] = {"classes": [], "assignment": [-1] * (width * ny)}
    return FabricProgramIR(doc)


def derive_ir(
    mesh,
    *,
    dtype=np.float32,
    reuse_buffers: bool = True,
    vectorized: bool = True,
    compute_fluxes: bool = True,
    overlap_compute: bool = True,
    pe_memory_bytes: int = WSE2_PE_MEMORY_BYTES,
    pe_memory_reserved: int = 2048,
    remap=None,
) -> FabricProgramIR:
    """Derive the program IR from a mesh and parameters — no fabric built.

    :func:`derive_exchange` of the footprint plus the flux kernel's
    memory and DSD fields, mesh, params and memory plan.  Produces a
    document byte-identical to capturing the same program with
    :func:`build_ir`; parameters mirror
    :class:`~repro.dataflow.program.FluxProgram`.  Timed as the
    ``ir.derive`` span whichever backend or table entry asks for it.
    """
    with span("ir.derive"):
        nx, ny, nz = mesh.nx, mesh.ny, mesh.nz
        doc = derive_exchange(nx, ny, remap=remap).doc
        doc["kind"] = KIND_PROGRAM
        doc["fabric"].update(
            pe_memory_bytes=int(pe_memory_bytes),
            pe_memory_reserved=int(pe_memory_reserved),
            vectorized=bool(vectorized),
        )
        doc["mesh"] = {"nx": nx, "ny": ny, "nz": nz}
        doc["params"] = {
            "dtype": np.dtype(dtype).name,
            "reuse_buffers": bool(reuse_buffers),
            "overlap_compute": bool(overlap_compute),
            "compute_fluxes": bool(compute_fluxes),
        }
        # one probe layout stands for every PE — the plan is uniform
        probe = Scratchpad(pe_memory_bytes, reserved=pe_memory_reserved)
        PEColumnLayout.build(probe, nz, dtype=dtype, reuse_buffers=reuse_buffers)
        doc["memory"] = {
            "classes": [_memory_records(probe)],
            "assignment": _per_pe(nx, ny, remap, 0, -1),
        }
        return FabricProgramIR(doc)


# --------------------------------------------------------------------- #
# Capture (from live objects)
# --------------------------------------------------------------------- #
def _capture_routes(fabric, coords, colors) -> dict:
    width = fabric.width
    routes: dict[str, dict] = {}
    for color in colors:
        table = _ClassTable()
        assignment = [-1] * (width * fabric.height)
        for coord in coords:
            router = fabric.router_map[coord]
            cfg = router.configs.get(color)
            if cfg is None:
                continue
            positions = router.positions_of(color)
            assignment[coord[1] * width + coord[0]] = table.intern(
                _route_key(positions, cfg.initial),
                lambda: _route_class_doc(positions, cfg.initial),
            )
        if table.classes:
            routes[str(color)] = {
                "classes": table.classes,
                "assignment": assignment,
            }
    return routes


def _capture_memory(fabric, coords) -> dict:
    width = fabric.width
    table = _ClassTable()
    assignment = [-1] * (width * fabric.height)
    for coord in coords:
        memory = fabric.pe_map[coord].memory
        if not memory.names():
            continue
        records = _memory_records(memory)
        assignment[coord[1] * width + coord[0]] = table.intern(
            _memory_key(records), lambda: records
        )
    return {"classes": table.classes, "assignment": assignment}


def _fabric_doc(fabric) -> dict:
    sample = next(iter(fabric.pes()))
    return {
        "width": fabric.width,
        "height": fabric.height,
        "pe_memory_bytes": sample.memory.capacity,
        "pe_memory_reserved": sample.memory.reserved,
        "vectorized": sample.dsd.vectorized,
        "bypass_columns": sorted(fabric.bypass_columns),
    }


def build_ir(program) -> FabricProgramIR:
    """Capture the IR off a built :class:`FluxProgram` (routers, memory,
    injectors read from the live objects, not re-derived)."""
    mesh = program.mesh
    doc = _base_doc(KIND_PROGRAM)
    doc["fabric"] = {
        "width": program.fabric.width,
        "height": program.fabric.height,
        "pe_memory_bytes": int(program.pe_memory_bytes),
        "pe_memory_reserved": int(program.pe_memory_reserved),
        "vectorized": bool(program.vectorized),
        "bypass_columns": sorted(program.fabric.bypass_columns),
    }
    doc["mesh"] = {"nx": mesh.nx, "ny": mesh.ny, "nz": mesh.nz}
    doc["params"] = {
        "dtype": np.dtype(program.dtype).name,
        "reuse_buffers": bool(program.reuse_buffers),
        "overlap_compute": bool(program.overlap_compute),
        "compute_fluxes": bool(program.compute_fluxes),
    }
    doc["contracts"] = _contracts_doc()
    doc["remap"] = _remap_doc(program.remap)

    names = program.colors.names()
    doc["colors"] = [
        {"id": program.colors.lookup(name), "name": name} for name in names
    ]

    program_coords = [pe.coord for _lx, _ly, pe in program.program_pes()]
    color_ids = [program.colors.lookup(name) for name in names]
    doc["routes"] = _capture_routes(program.fabric, program_coords, color_ids)

    doc["expected_receivers"] = _expected_receivers_doc(
        mesh.nx,
        mesh.ny,
        program.remap,
        (*CARDINAL_CHANNELS, *DIAGONAL_CHANNELS),
        program.colors.lookup,
    )

    senders: dict[str, list] = {ch.name: [] for ch in CARDINAL_CHANNELS}
    for _lx, _ly, pe in program.program_pes():
        for channel in pe.state["step1_channels"]:
            senders[channel.name].append(pe.coord)
    for channel in DIAGONAL_CHANNELS:
        senders[channel.name] = program_coords
    doc["injectors"] = {
        name: _flags(coords, program.fabric)
        for name, coords in senders.items()
    }

    doc["memory"] = _capture_memory(program.fabric, program_coords)
    return FabricProgramIR(doc)


def ir_from_fabric(
    fabric,
    *,
    colors: dict[int, str] | None = None,
    expected_receivers: dict | None = None,
) -> FabricProgramIR:
    """Capture a bare-fabric IR — routes and memory as installed.

    This is the path for fabrics that never came from a
    :class:`FluxProgram` (tests, corrupted fabrics): ``repro check`` on
    the resulting IR reproduces ``check_fabric`` on the live object.
    """
    doc = _base_doc(KIND_FABRIC)
    doc["fabric"] = _fabric_doc(fabric)
    doc["mesh"] = None
    doc["params"] = None
    doc["remap"] = None
    if colors:
        doc["colors"] = [
            {"id": cid, "name": name} for cid, name in sorted(colors.items())
        ]
    coords = [pe.coord for pe in fabric.pes()]
    color_ids = sorted(
        {
            color
            for router in fabric.router_map.values()
            for color in router.configured_colors()
        }
    )
    doc["routes"] = _capture_routes(fabric, coords, color_ids)
    if expected_receivers:
        doc["expected_receivers"] = {
            str(cid): _flags(coords_, fabric)
            for cid, coords_ in sorted(expected_receivers.items())
        }
    doc["memory"] = _capture_memory(fabric, coords)
    return FabricProgramIR(doc)
