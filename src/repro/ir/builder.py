"""Constructing :class:`~repro.ir.schema.FabricProgramIR`.

Two independent construction paths that must agree:

* :func:`derive_ir` — the *compiler* path: closed-form derivation from a
  mesh and program parameters, using the same channel/switch formulas
  (:mod:`repro.dataflow.cardinal`/``diagonal``) and one throwaway
  :class:`~repro.dataflow.halos.PEColumnLayout` probe for the memory
  plan.  No fabric is built; this is the cheap path the fused backend
  and ``repro.serve``-style caching take at startup.
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

from repro.core.stencil import CARDINAL_XY, DIAGONAL_XY
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
)
from repro.obs.spans import span
from repro.wse.memory import WSE2_PE_MEMORY_BYTES, Scratchpad

__all__ = ["build_ir", "derive_ir", "ir_from_fabric"]


def _coord_key(coord) -> str:
    x, y = coord
    return f"{int(x)},{int(y)}"


def _contracts_doc() -> dict:
    return {
        "exchange_plan": [
            {
                "phase": "cardinal",
                "connections": [c.name for c in CARDINAL_XY],
                "hops": 1,
            },
            {
                "phase": "diagonal",
                "connections": [c.name for c in DIAGONAL_XY],
                "hops": 2,
            },
        ],
        "fold": "per-pe-arrival-order",
        "determinism": "single-stream-event-order",
    }


class _ClassTable:
    """Deduplicating class table: identical entries share one index.

    Interning is keyed on a cheap canonical tuple, not a JSON dump of
    the entry — the JSON doc is only materialized the first time a class
    is seen.  On a regular fabric that is a handful of times total, not
    once per PE, which keeps :func:`derive_ir` off the run-startup
    critical path.
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
        "memory": {"classes": [], "assignment": {}},
        "annotations": {},
    }


def _expected_receivers_doc(nx: int, ny: int, remap, channels, color_of) -> dict:
    """``color id -> sorted receiver coords`` from the mesh stencil.

    A PE receives a channel's color iff its ``delivers`` neighbour is in
    bounds.
    """
    out: dict[str, list] = {}
    for channel in channels:
        dx, dy, _ = channel.delivers.offset
        coords = []
        for y in range(ny):
            for x in range(nx):
                if 0 <= x + dx < nx and 0 <= y + dy < ny:
                    coord = (x, y)
                    if remap is not None:
                        coord = remap.physical(coord)
                    coords.append(coord)
        out[str(color_of(channel.name))] = [list(c) for c in sorted(coords)]
    return out


# --------------------------------------------------------------------- #
# Derivation (closed form, no fabric)
# --------------------------------------------------------------------- #
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

    Produces a document byte-identical to capturing the same program with
    :func:`build_ir`; parameters mirror
    :class:`~repro.dataflow.program.FluxProgram`.  Timed as the
    ``ir.derive`` span whichever backend or table entry asks for it.
    """
    with span("ir.derive"):
        nx, ny, nz = mesh.nx, mesh.ny, mesh.nz
        width = nx if remap is None else remap.physical_width
        doc = _base_doc(KIND_PROGRAM)
        doc["fabric"] = {
            "width": width,
            "height": ny,
            "pe_memory_bytes": int(pe_memory_bytes),
            "pe_memory_reserved": int(pe_memory_reserved),
            "vectorized": bool(vectorized),
            "bypass_columns": sorted(remap.bypassed_columns) if remap else [],
        }
        doc["mesh"] = {"nx": nx, "ny": ny, "nz": nz}
        doc["params"] = {
            "dtype": np.dtype(dtype).name,
            "reuse_buffers": bool(reuse_buffers),
            "overlap_compute": bool(overlap_compute),
            "compute_fluxes": bool(compute_fluxes),
        }
        doc["contracts"] = _contracts_doc()
        doc["remap"] = _remap_doc(remap)

        def physical(coord):
            return coord if remap is None else remap.physical(coord)

        channels = (*CARDINAL_CHANNELS, *DIAGONAL_CHANNELS)
        doc["colors"] = [
            {"id": cid, "name": ch.name} for cid, ch in enumerate(channels)
        ]
        color_of = {ch.name: cid for cid, ch in enumerate(channels)}

        cells = [(lx, ly) for ly in range(ny) for lx in range(nx)]
        cell_keys = [_coord_key(physical(c)) for c in cells]

        routes: dict[str, dict] = {}
        for cid, channel in enumerate(CARDINAL_CHANNELS):
            table = _ClassTable()
            assignment: dict[str, int] = {}
            for cell, key in zip(cells, cell_keys):
                positions, initial = switch_positions_for(cell, channel, nx, ny)
                assignment[key] = table.intern(
                    _route_key(positions, initial),
                    lambda: _route_class_doc(positions, initial),
                )
            routes[str(cid)] = {
                "classes": table.classes,
                "assignment": assignment,
            }
        for offset, channel in enumerate(DIAGONAL_CHANNELS):
            cid = len(CARDINAL_CHANNELS) + offset
            table = _ClassTable()
            position = static_position(channel)
            idx = table.intern(
                _route_key([position], 0),
                lambda: _route_class_doc([position], 0),
            )
            routes[str(cid)] = {
                "classes": table.classes,
                "assignment": {key: idx for key in cell_keys},
            }
        doc["routes"] = routes

        doc["expected_receivers"] = _expected_receivers_doc(
            nx, ny, remap, channels, color_of.__getitem__
        )

        injectors: dict[str, list] = {}
        for channel in CARDINAL_CHANNELS:
            coords = [
                physical((lx, ly))
                for ly in range(ny)
                for lx in range(nx)
                if is_step1_sender((lx, ly), channel, nx, ny)
            ]
            injectors[channel.name] = [list(c) for c in sorted(coords)]
        all_coords = sorted(
            physical((lx, ly)) for ly in range(ny) for lx in range(nx)
        )
        for channel in DIAGONAL_CHANNELS:
            injectors[channel.name] = [list(c) for c in all_coords]
        doc["injectors"] = injectors

        # one probe layout stands for every PE — the plan is uniform
        probe = Scratchpad(pe_memory_bytes, reserved=pe_memory_reserved)
        PEColumnLayout.build(probe, nz, dtype=dtype, reuse_buffers=reuse_buffers)
        doc["memory"] = {
            "classes": [_memory_records(probe)],
            "assignment": {_coord_key(c): 0 for c in all_coords},
        }
        return FabricProgramIR(doc)


# --------------------------------------------------------------------- #
# Capture (from live objects)
# --------------------------------------------------------------------- #
def _capture_routes(fabric, coords, colors) -> dict:
    routes: dict[str, dict] = {}
    for color in colors:
        table = _ClassTable()
        assignment: dict[str, int] = {}
        for coord in coords:
            router = fabric.router_map[coord]
            cfg = router.configs.get(color)
            if cfg is None:
                continue
            positions = router.positions_of(color)
            assignment[_coord_key(coord)] = table.intern(
                _route_key(positions, cfg.initial),
                lambda: _route_class_doc(positions, cfg.initial),
            )
        if assignment:
            routes[str(color)] = {
                "classes": table.classes,
                "assignment": assignment,
            }
    return routes


def _capture_memory(fabric, coords) -> dict:
    table = _ClassTable()
    assignment: dict[str, int] = {}
    for coord in coords:
        memory = fabric.pe_map[coord].memory
        if not memory.names():
            continue
        records = _memory_records(memory)
        assignment[_coord_key(coord)] = table.intern(
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

    injectors: dict[str, list] = {ch.name: [] for ch in CARDINAL_CHANNELS}
    for _lx, _ly, pe in program.program_pes():
        for channel in pe.state["step1_channels"]:
            injectors[channel.name].append(pe.coord)
    for name in injectors:
        injectors[name] = [list(c) for c in sorted(injectors[name])]
    for channel in DIAGONAL_CHANNELS:
        injectors[channel.name] = [list(c) for c in sorted(program_coords)]
    doc["injectors"] = injectors

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
            str(cid): [list(c) for c in sorted(coords_)]
            for cid, coords_ in sorted(expected_receivers.items())
        }
    doc["memory"] = _capture_memory(fabric, coords)
    return FabricProgramIR(doc)
