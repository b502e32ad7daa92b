"""`FabricProgramIR` — the thin-waist representation of a fabric program.

One declarative document describes everything the backends and the static
verifier need to agree on: the fabric envelope, the color table, every
router's switch schedule, the expected receiver set per color, the
injector (step-1 sender) sets, every PE's memory layout, and the fold
contracts that pin cross-backend numerics.  The event, lockstep, and
fused runtimes are *lowered* from this IR (:mod:`repro.ir.lower`), and
``repro check`` verifies the IR directly (:func:`repro.check.check_ir`),
so the verifier and the runtimes cannot drift — the EventFlow-EIR move
applied to the paper's flux program.

The in-memory object wraps the canonical JSON document (a plain dict in
the exact shape :func:`repro.util.jsonio.stable_dumps` serializes) and
adds typed accessors that parse ports/connections on demand.  Keeping the
document primary makes two properties trivial:

* ``to_json``/``from_json`` round-trip byte-for-byte;
* :attr:`FabricProgramIR.content_hash` — SHA-256 over the stable dump of
  the static definition — is identical across processes and platforms.
  The ``annotations`` object (room for derived, recomputable data; the
  builders leave it empty) is *excluded* from the hash: it is not part
  of the program's identity.

Document layout (schema version 2)::

    {
      "schema": 2,
      "kind": "flux-program" | "fabric",
      "fabric": {"width", "height", "bypass_columns", "pe_memory_bytes",
                 "pe_memory_reserved", "vectorized"},   # the last three
                                                        # not when exchange-only
      "mesh":   {"nx", "ny", "nz"} | null,
      "params": {"dtype", "reuse_buffers", "overlap_compute",
                 "compute_fluxes"} | null,
      "colors": [{"id": 0, "name": "card_east"}, ...],
      "routes": {"<color id>": {
          "classes": [{"initial": 0,
                       "positions": [{"RAMP": ["EAST"]}, ...]}, ...],
          "assignment": [class_index | -1, ...]}},
      "expected_receivers": {"<color id>": [0 | 1, ...]},
      "injectors": {"<channel name>": [0 | 1, ...]},
      "memory": {"classes": [[{"name", "shape", "dtype", "alias_of"?},
                              ...], ...],
                 "assignment": [class_index | -1, ...]},
      "contracts": {"exchange_plan": [{"phase": "cardinal",
                                       "connections": [...],
                                       "hops": 1}, ...],
                    "fold": "per-pe-arrival-order",
                    "determinism": "single-stream-event-order"},
      "remap": {"logical_width", "height", "physical_width",
                "column_map": [px, ...]} | null,
      "annotations": {...}            # NOT hashed
    }

Everything per-PE is one flat row-major list of ``width * height`` small
ints: the entry of the PE at fabric coordinate ``(x, y)`` is at index
``y * width + x``.  An ``assignment`` entry is an index into the
``classes`` table beside it, or ``-1`` where the router does not
configure the color / the PE allocates nothing (bypassed columns, PEs
outside a program's footprint).  ``expected_receivers`` and ``injectors``
entries are ``1`` for members of the set and ``0`` otherwise.  Route and
memory classes are deduplicated tables numbered by first appearance in
row-major fabric order — on a regular fabric only a handful of distinct
switch schedules exist (seed edge, even-distance, odd-distance per
cardinal channel; one static position per diagonal), so the IR holds
O(classes) Python containers at any fabric size: a list of small ints is
one object to the garbage collector, where a per-PE dict or coordinate
list is one per PE (DESIGN.md Sec. 16).

Schema version 1 stored the same tables as ``{"x,y": class_index}``
dicts and the sets as sorted ``[[x, y], ...]`` lists.  v1 files keep
loading: :meth:`FabricProgramIR.loads` verifies the embedded content
hash over the document *as stored*, then :func:`_upgrade_v1` rewrites it
in memory into the layout above (class tables carry over unchanged — v1
numbered them in the same order), so a loaded v1 file compares equal to
the v2 derivation of the same program and re-serializes as v2.  There is
no v1 writer, and a content hash names a program *under a schema
version*: the v1 and v2 hashes of one program differ.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from repro.core.stencil import Connection
from repro.util.jsonio import stable_dumps
from repro.wse.geometry import Port
from repro.wse.memory import WSE2_PE_MEMORY_BYTES

__all__ = ["FabricProgramIR", "IR_SCHEMA_VERSION", "KIND_PROGRAM", "KIND_FABRIC"]

IR_SCHEMA_VERSION = 2

#: IR of a full flux program (mesh + params + memory + fold contracts).
KIND_PROGRAM = "flux-program"
#: IR of a bare fabric (routes + memory only) — enough for `repro check` —
#: or of the exchange alone (:func:`~repro.ir.builder.derive_exchange`).
KIND_FABRIC = "fabric"

_REQUIRED_KEYS = (
    "schema",
    "kind",
    "fabric",
    "colors",
    "routes",
    "expected_receivers",
    "injectors",
    "memory",
    "annotations",
)


def _check_header(document: dict) -> None:
    """Required keys, a readable schema version, a known kind."""
    missing = [k for k in _REQUIRED_KEYS if k not in document]
    if missing:
        raise ValueError(f"IR document missing keys: {missing}")
    if document["schema"] not in (1, IR_SCHEMA_VERSION):
        raise ValueError(
            f"unsupported IR schema version {document['schema']!r} "
            f"(this build reads versions 1-{IR_SCHEMA_VERSION})"
        )
    if document["kind"] not in (KIND_PROGRAM, KIND_FABRIC):
        raise ValueError(f"unknown IR kind {document['kind']!r}")


def _static_hash(document: dict) -> str:
    """SHA-256 over the stable dump of everything but ``annotations``."""
    static = {k: v for k, v in document.items() if k != "annotations"}
    payload = stable_dumps(static, indent=None)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _per_pe_lists(document: dict):
    """``(label, list, allowed entries)`` of every per-PE list in a v2
    document: a class index or -1 in an assignment, 0 or 1 in a set."""
    flags = range(2)
    for cid, table in document["routes"].items():
        classes = range(-1, len(table["classes"]))
        yield f"routes[{cid}].assignment", table["assignment"], classes
    for cid, cells in document["expected_receivers"].items():
        yield f"expected_receivers[{cid}]", cells, flags
    for name, cells in document["injectors"].items():
        yield f"injectors[{name}]", cells, flags
    memory = document["memory"]
    classes = range(-1, len(memory["classes"]))
    yield "memory.assignment", memory["assignment"], classes


def _check_entries(document: dict) -> None:
    """Every per-PE entry is an int its list allows — what a file from
    outside can get wrong that no builder does (the builders skip this)."""
    width = document["fabric"]["width"]
    for label, cells, allowed in _per_pe_lists(document):
        for i, value in enumerate(cells):
            if type(value) is not int or value not in allowed:
                raise ValueError(
                    f"{label} holds {value!r} at PE ({i % width}, "
                    f"{i // width}); allowed: {allowed.start} to "
                    f"{allowed.stop - 1}"
                )


def _coords_above(cells: list, width: int, floor: int) -> list[tuple[int, int]]:
    """``(x, y)`` of the row-major *cells* whose entry exceeds *floor*."""
    return [(i % width, i // width) for i, v in enumerate(cells) if v > floor]


def scatter(entries, width: int, height: int, fill: int) -> list[int]:
    """Row-major per-PE list holding *fill*, and ``value`` at the PE of
    every ``((x, y), value)`` in *entries*."""
    cells = [fill] * (width * height)
    for (x, y), value in entries:
        if not (0 <= x < width and 0 <= y < height):
            raise ValueError(
                f"coordinate ({x}, {y}) is outside the {width}x{height} fabric"
            )
        cells[y * width + x] = value
    return cells


def _upgrade_v1(document: dict) -> dict:
    """A schema-1 document rewritten as schema 2 (a new dict).

    ``"x,y" -> class`` dicts become flat assignment lists (``-1`` where
    v1 had no key) and ``[[x, y], ...]`` coordinate lists become 0/1
    lists; class tables and every other block carry over unchanged.
    """
    size = (document["fabric"]["width"], document["fabric"]["height"])

    def parse_coord(key: str) -> tuple[int, int]:
        x, y = key.split(",")
        return (int(x), int(y))

    def table(raw: dict) -> dict:
        assigned = ((parse_coord(k), i) for k, i in raw["assignment"].items())
        return {
            "classes": raw["classes"],
            "assignment": scatter(assigned, *size, -1),
        }

    upgraded = dict(document)
    upgraded["schema"] = IR_SCHEMA_VERSION
    upgraded["routes"] = {
        cid: table(raw) for cid, raw in document["routes"].items()
    }
    upgraded["memory"] = table(document["memory"])
    for block in ("expected_receivers", "injectors"):
        upgraded[block] = {
            key: scatter(((coord, 1) for coord in coords), *size, 0)
            for key, coords in document[block].items()
        }
    return upgraded


def encode_position(position: dict[Port, tuple[Port, ...]]) -> dict:
    """One switch position as a JSON object (port names, stable order)."""
    return {
        in_port.name: [out.name for out in outs]
        for in_port, outs in sorted(position.items(), key=lambda kv: kv[0].name)
    }


def decode_position(doc: dict) -> dict[Port, tuple[Port, ...]]:
    return {
        Port[in_name]: tuple(Port[out] for out in outs)
        for in_name, outs in doc.items()
    }


class FabricProgramIR:
    """Typed view over the canonical fabric-program document."""

    def __init__(self, document: dict):
        _check_header(document)
        if document["schema"] == 1:
            document = _upgrade_v1(document)
        cells = document["fabric"]["width"] * document["fabric"]["height"]
        for label, per_pe, _allowed in _per_pe_lists(document):
            if len(per_pe) != cells:
                raise ValueError(
                    f"IR {label} has {len(per_pe)} entries for a fabric "
                    f"of {cells} PEs"
                )
        self.doc = document
        self._routes_cache: dict[int, tuple] = {}

    # ------------------------------------------------------------------ #
    # Identity
    # ------------------------------------------------------------------ #
    @property
    def content_hash(self) -> str:
        """SHA-256 of the static definition (annotations excluded).

        This is the cross-process cache key: two IRs with equal hashes
        denote the same program, regardless of what derived annotations
        either copy happens to carry.
        """
        return _static_hash(self.doc)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FabricProgramIR):
            return NotImplemented
        return self.content_hash == other.content_hash

    def __hash__(self) -> int:
        return hash(self.content_hash)

    def __repr__(self) -> str:
        f = self.doc["fabric"]
        return (
            f"FabricProgramIR(kind={self.doc['kind']!r}, "
            f"fabric={f['width']}x{f['height']}, "
            f"hash={self.content_hash[:12]})"
        )

    # ------------------------------------------------------------------ #
    # Serialization
    # ------------------------------------------------------------------ #
    def to_json(self, path) -> None:
        """Write the byte-stable serialized IR (document + content hash)."""
        doc = dict(self.doc)
        doc["content_hash"] = self.content_hash
        Path(path).write_text(stable_dumps(doc), encoding="utf-8")

    def dumps(self) -> str:
        doc = dict(self.doc)
        doc["content_hash"] = self.content_hash
        return stable_dumps(doc)

    @classmethod
    def from_json(cls, path) -> "FabricProgramIR":
        """Load a serialized IR, verifying its embedded content hash."""
        try:
            raw = Path(path).read_text(encoding="utf-8")
        except OSError as exc:
            raise ValueError(f"cannot read IR file {path}: {exc}") from exc
        return cls.loads(raw, source=str(path))

    @classmethod
    def loads(cls, raw: str, *, source: str = "<string>") -> "FabricProgramIR":
        try:
            doc = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{source} is not valid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise ValueError(f"{source} is not an IR document (not an object)")
        stored = doc.pop("content_hash", None)
        try:
            # the stored hash names the document as written, so it is
            # checked before a v1 document is upgraded — and after the
            # version check, which decides whether it can be read at all
            _check_header(doc)
            if stored is not None and stored != (actual := _static_hash(doc)):
                raise ValueError(
                    f"content hash mismatch — file says {stored[:12]}…, "
                    f"document hashes to {actual[:12]}… (corrupt or "
                    "hand-edited IR)"
                )
            ir = cls(doc)
            _check_entries(ir.doc)
            return ir
        except ValueError as exc:
            raise ValueError(f"{source}: {exc}") from exc

    # ------------------------------------------------------------------ #
    # Fabric envelope
    # ------------------------------------------------------------------ #
    @property
    def kind(self) -> str:
        return self.doc["kind"]

    @property
    def width(self) -> int:
        return self.doc["fabric"]["width"]

    @property
    def height(self) -> int:
        return self.doc["fabric"]["height"]

    # an exchange IR plans no memory: it reads as a default Fabric's
    @property
    def pe_memory_bytes(self) -> int:
        return self.doc["fabric"].get("pe_memory_bytes", WSE2_PE_MEMORY_BYTES)

    @property
    def pe_memory_reserved(self) -> int:
        return self.doc["fabric"].get("pe_memory_reserved", 0)

    @property
    def vectorized(self) -> bool:
        return self.doc["fabric"].get("vectorized", True)

    @property
    def bypass_columns(self) -> tuple[int, ...]:
        return tuple(self.doc["fabric"]["bypass_columns"])

    # ------------------------------------------------------------------ #
    # Program parameters
    # ------------------------------------------------------------------ #
    @property
    def mesh_shape(self) -> tuple[int, int, int] | None:
        """(nx, ny, nz) of the logical mesh, None for bare-fabric IRs."""
        mesh = self.doc.get("mesh")
        if mesh is None:
            return None
        return (mesh["nx"], mesh["ny"], mesh["nz"])

    @property
    def params(self) -> dict | None:
        return self.doc.get("params")

    @property
    def remap(self) -> dict | None:
        return self.doc.get("remap")

    # ------------------------------------------------------------------ #
    # Colors and routes
    # ------------------------------------------------------------------ #
    @property
    def colors(self) -> dict[int, str]:
        """Color id -> channel name (empty for unnamed bare fabrics)."""
        return {entry["id"]: entry["name"] for entry in self.doc["colors"]}

    def color_id(self, name: str) -> int:
        for entry in self.doc["colors"]:
            if entry["name"] == name:
                return entry["id"]
        raise KeyError(f"IR has no color named {name!r}")

    def route_color_ids(self) -> tuple[int, ...]:
        return tuple(sorted(int(cid) for cid in self.doc["routes"]))

    def route_table(self, color: int) -> tuple[list, list]:
        """``(classes, assignment)`` of *color*: the distinct ``(switch
        positions, initial position)`` schedules with ports decoded, and
        the row-major per-router class index (``-1``: unconfigured) — the
        arguments of :meth:`repro.wse.fabric.Fabric.install_routes`.
        Both are cached and shared: treat them as read-only."""
        cached = self._routes_cache.get(color)
        if cached is not None:
            return cached
        raw = self.doc["routes"].get(str(color))
        if raw is None:
            table = ([], [-1] * (self.width * self.height))
        else:
            classes = [
                ([decode_position(p) for p in cls["positions"]], cls["initial"])
                for cls in raw["classes"]
            ]
            table = (classes, raw["assignment"])
        self._routes_cache[color] = table
        return table

    def _cell(self, cells: list, coord) -> int:
        """Entry of the PE at *coord* in a per-PE list (-1 off the fabric)."""
        x, y = coord
        width = self.width
        if 0 <= x < width and 0 <= y < self.height:
            return cells[y * width + x]
        return -1

    def route_for(self, color: int, coord) -> tuple[list, int] | None:
        """(switch positions, initial position) of *color* at *coord*.

        Positions are fresh ``dict[Port, tuple[Port, ...]]`` copies; None
        when the router at *coord* does not configure the color (bypassed
        column or out of the route's footprint).
        """
        classes, assignment = self.route_table(color)
        idx = self._cell(assignment, coord)
        if idx < 0:
            return None
        positions, initial = classes[idx]
        return ([dict(pos) for pos in positions], initial)

    def route_coords(self, color: int) -> list[tuple[int, int]]:
        return _coords_above(self.route_table(color)[1], self.width, -1)

    def expected_receivers(self, color: int) -> list[tuple[int, int]]:
        flags = self.doc["expected_receivers"].get(str(color), [])
        return _coords_above(flags, self.width, 0)

    def injector_coords(self, channel_name: str) -> set[tuple[int, int]]:
        flags = self.doc["injectors"].get(channel_name, [])
        return set(_coords_above(flags, self.width, 0))

    def injector_flags(self, channel_name: str) -> list[int]:
        """The row-major 0/1 step-1 sender list of *channel_name* (all
        zeros when the IR has none); the document's own: read-only."""
        flags = self.doc["injectors"].get(channel_name)
        return [0] * (self.width * self.height) if flags is None else flags

    # ------------------------------------------------------------------ #
    # Memory
    # ------------------------------------------------------------------ #
    def memory_records_for(self, coord) -> list[dict] | None:
        """Allocation records at *coord* (allocation order), or None."""
        mem = self.doc["memory"]
        idx = self._cell(mem["assignment"], coord)
        if idx < 0:
            return None
        return mem["classes"][idx]

    def memory_coords(self) -> list[tuple[int, int]]:
        return _coords_above(self.doc["memory"]["assignment"], self.width, -1)

    # ------------------------------------------------------------------ #
    # Contracts
    # ------------------------------------------------------------------ #
    @property
    def exchange_plan(self) -> tuple[tuple[tuple[Connection, ...], int, str], ...]:
        """The fold-order contract: ((connections, hops, phase), ...).

        Phases run in order; within a phase the listed connections are
        exchanged in list order.  The lockstep and fused lowerings
        consume this instead of re-deriving the paper's
        cardinal-then-diagonal order.
        """
        plan = self.doc.get("contracts", {}).get("exchange_plan", [])
        return tuple(
            (
                tuple(Connection[name] for name in entry["connections"]),
                entry["hops"],
                entry["phase"],
            )
            for entry in plan
        )
