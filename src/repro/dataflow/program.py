"""Builds the per-PE flux program: colors, routing, tasks, memory.

This module translates the paper's Sec. 5 into an executable fabric
configuration:

* allocates the twelve routable colors (4 cardinal channels with switch
  positions, 4 diagonal channels with static two-hop routes, Sec. 5.2);
* builds every PE's memory layout (Sec. 5.1) and fills the static data
  (elevation column, 10 transmissibility columns);
* binds the data/control tasks implementing receive-compute overlap: a
  partial flux computation runs immediately when a neighbour's column
  arrives ("the corresponding flux computation will occur immediately in
  an asynchronous fashion", Sec. 5.2.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core import constants
from repro.core.fluid import FluidProperties
from repro.core.mesh import CartesianMesh3D
from repro.core.stencil import (
    ALL_CONNECTIONS,
    XY_CONNECTIONS,
    Connection,
    interior_slices,
)
from repro.core.transmissibility import Transmissibility
from repro.dataflow.cardinal import (
    CARDINAL_CHANNELS,
    CardinalChannel,
    is_step1_sender,
    switch_positions_for,
)
from repro.dataflow.diagonal import DIAGONAL_CHANNELS, DiagonalChannel, static_position
from repro.dataflow.flux_pe import compute_face_flux_column, evaluate_density_column
from repro.dataflow.halos import TRANS_NAMES, PEColumnLayout
from repro.dataflow.mapping import SpareColumnRemap
from repro.obs.spans import span
from repro.wse.color import ColorAllocator
from repro.wse.fabric import Fabric
from repro.wse.memory import WSE2_PE_MEMORY_BYTES, Scratchpad
from repro.wse.packet import KIND_CONTROL
from repro.wse.pe import ProcessingElement
from repro.wse.runtime import EventRuntime

__all__ = ["FluxProgram", "padded_trans_fields"]

#: ``(dx, dy)`` of the eight X-Y neighbours (``Connection.offset`` goes
#: through two enum descriptors; this is read per PE at set-up).
_XY_OFFSETS = tuple(conn.offset[:2] for conn in XY_CONNECTIONS)


def padded_trans_fields(
    mesh: CartesianMesh3D,
    trans: Transmissibility,
    dtype=np.float32,
    *,
    xy_halo: int = 0,
) -> dict[Connection, np.ndarray]:
    """Full-mesh transmissibility fields, zero where no neighbour exists.

    ``out[conn][z, y, x]`` is ``Upsilon`` between cell (x, y, z) and its
    *conn* neighbour (0 on the boundary), ready to slice into per-PE
    columns.  ``xy_halo`` surrounds every z-plane with that many further
    zero cells (the fused backend's layout), shifting y and x by it.
    """
    nz, ny, nx = mesh.shape_zyx
    h = xy_halo
    out: dict[Connection, np.ndarray] = {}
    for conn in ALL_CONNECTIONS:
        full = np.zeros((nz, ny + 2 * h, nx + 2 * h), dtype=dtype)
        local, _ = interior_slices(mesh.shape_zyx, conn)
        full[:, h : h + ny, h : h + nx][local] = trans.face_array(conn)
        out[conn] = full
    return out


@dataclass
class FluxProgram:
    """A configured fabric ready to run applications of Algorithm 1.

    Parameters
    ----------
    mesh, fluid, trans:
        Problem definition; ``trans`` defaults to a fresh TPFA build.
    gravity:
        Gravitational acceleration of Eq. 3b.
    dtype:
        PE-local floating dtype (float32 matches the hardware; float64
        is allowed for tight cross-validation runs).
    reuse_buffers:
        Apply the Sec.-5.3.1 memory optimization (see halos module).
    vectorized:
        Use the SIMD/DSD fast path for cycle accounting (Sec. 5.3.3).
    compute_fluxes:
        When False, run communication only — the paper's Table 3
        experiment ("we modified our dataflow implementation to remove
        all flux computations and focus solely on data communications").
    overlap_compute:
        When True (the paper's Sec.-5.3.2 behaviour) each neighbour's
        partial flux is computed immediately on arrival, hiding compute
        behind the remaining transfers.  When False, arrivals are only
        drained into per-neighbour buffers and all eight partial fluxes
        run after the last arrival — the no-overlap ablation.  Requires
        ``reuse_buffers=False`` (deferred compute needs every halo live).
    pe_memory_bytes / pe_memory_reserved:
        Scratchpad capacity and code reservation per PE.
    remap:
        Optional :class:`~repro.dataflow.mapping.SpareColumnRemap`
        placing the logical ``nx x ny`` program on a wider physical
        fabric with defective columns bypassed (CS-2 yield handling).
        Routing, memory and gather all address PEs through the remap;
        bypassed columns carry pass-through east/west traffic only.
        Residuals are bit-identical to the healthy-fabric program.
    """

    mesh: CartesianMesh3D
    fluid: FluidProperties
    trans: Transmissibility | None = None
    gravity: float = constants.GRAVITY
    dtype: type = np.float32
    reuse_buffers: bool = True
    vectorized: bool = True
    compute_fluxes: bool = True
    overlap_compute: bool = True
    pe_memory_bytes: int = WSE2_PE_MEMORY_BYTES
    pe_memory_reserved: int = 2048
    remap: SpareColumnRemap | None = None
    #: Optional :class:`~repro.ir.schema.FabricProgramIR` to lower from:
    #: routing tables and injector sets are consumed from the IR instead
    #: of re-derived, after validating the IR describes this program.
    ir: object | None = None
    fabric: Fabric = field(init=False)
    colors: ColorAllocator = field(init=False)

    def __post_init__(self) -> None:
        if not self.overlap_compute and self.reuse_buffers:
            raise ValueError(
                "overlap_compute=False requires reuse_buffers=False "
                "(deferred partial fluxes need all eight halos resident)"
            )
        if self.trans is None:
            self.trans = Transmissibility(self.mesh, dtype=self.dtype)
        elif self.trans.mesh is not self.mesh:
            raise ValueError("trans was built for a different mesh")
        if self.remap is not None:
            if (
                self.remap.logical_width != self.mesh.nx
                or self.remap.height != self.mesh.ny
            ):
                raise ValueError(
                    f"remap covers {self.remap.logical_width}x"
                    f"{self.remap.height} but the mesh needs "
                    f"{self.mesh.nx}x{self.mesh.ny}"
                )
            fabric_width = self.remap.physical_width
            bypass = self.remap.bypassed_columns
        else:
            fabric_width = self.mesh.nx
            bypass = frozenset()
        self.fabric = Fabric(
            fabric_width,
            self.mesh.ny,
            pe_memory_bytes=self.pe_memory_bytes,
            pe_memory_reserved=self.pe_memory_reserved,
            vectorized=self.vectorized,
            bypass_columns=bypass,
        )
        self.colors = ColorAllocator()
        self._card_color: dict[CardinalChannel, int] = {}
        self._diag_color: dict[DiagonalChannel, int] = {}
        if self.ir is not None:
            self._validate_ir(self.ir)
        # scalar kernel parameters pre-cast to the PE dtype: the ufuncs
        # cast them per call otherwise (same bits, avoidable overhead)
        _scalar = np.dtype(self.dtype).type
        self._inv_viscosity = _scalar(1.0 / self.fluid.viscosity)
        self._gravity = _scalar(self.gravity)
        with span("program.build", cat="build",
                  fabric=f"{self.mesh.nx}x{self.mesh.ny}"):
            with span("program.memory", cat="build"):
                self._setup_memory()
            with span("program.routing", cat="build"):
                self._setup_routing()
            with span("program.tasks", cat="build"):
                self._setup_tasks()

    # ------------------------------------------------------------------ #
    def program_pes(self):
        """The PEs running the program as ``(lx, ly, pe)`` triples.

        Iterates *logical* coordinates in row-major order — the same
        order as ``fabric.pes()`` on a healthy fabric — so injection and
        scheduling sequence numbers (and therefore event order and
        summation order) are independent of any spare-column remap.
        """
        remap = self.remap
        pes = self.fabric.pe_map
        for ly in range(self.mesh.ny):
            for lx in range(self.mesh.nx):
                coord = (lx, ly) if remap is None else remap.physical((lx, ly))
                yield lx, ly, pes[coord]

    # ------------------------------------------------------------------ #
    # IR lowering (repro.ir)
    # ------------------------------------------------------------------ #
    def _validate_ir(self, ir) -> None:
        """The IR must describe exactly this program, or lowering would
        silently build something else."""
        mesh = self.mesh
        if getattr(ir, "kind", None) != "flux-program":
            raise ValueError(
                f"FluxProgram can only lower a flux-program IR, "
                f"got kind {getattr(ir, 'kind', None)!r}"
            )
        if ir.mesh_shape != (mesh.nx, mesh.ny, mesh.nz):
            raise ValueError(
                f"IR was built for mesh {ir.mesh_shape}, got "
                f"({mesh.nx}, {mesh.ny}, {mesh.nz})"
            )
        if (self.remap is None) != (ir.remap is None):
            raise ValueError("IR and program disagree on spare-column remap")
        params = ir.params
        checks = (
            ("dtype", np.dtype(self.dtype).name, params["dtype"]),
            ("reuse_buffers", self.reuse_buffers, params["reuse_buffers"]),
            (
                "overlap_compute",
                self.overlap_compute,
                params["overlap_compute"],
            ),
            ("compute_fluxes", self.compute_fluxes, params["compute_fluxes"]),
            ("vectorized", self.vectorized, ir.vectorized),
            ("pe_memory_bytes", self.pe_memory_bytes, ir.pe_memory_bytes),
            (
                "pe_memory_reserved",
                self.pe_memory_reserved,
                ir.pe_memory_reserved,
            ),
            ("fabric width", self.fabric.width, ir.width),
            ("fabric height", self.fabric.height, ir.height),
            # same width, other columns out of service: every route and
            # injector of the IR would land one column off
            (
                "bypassed columns",
                sorted(self.fabric.bypass_columns),
                list(ir.bypass_columns),
            ),
            (
                "remap column map",
                None if self.remap is None else list(self.remap.column_map),
                None if ir.remap is None else list(ir.remap["column_map"]),
            ),
        )
        for name, mine, theirs in checks:
            if mine != theirs:
                raise ValueError(
                    f"IR mismatch on {name}: program has {mine!r}, "
                    f"IR says {theirs!r}"
                )

    def _setup_routing_from_ir(self) -> None:
        """Install switch schedules from the IR's route tables.

        The color allocation order is cross-checked against the IR's
        color table — a program and its IR must agree on ids, or the
        receiver sets would silently describe different channels.
        """
        ir = self.ir
        for channel in (*CARDINAL_CHANNELS, *DIAGONAL_CHANNELS):
            color = self.colors.allocate(channel.name)
            if color != ir.color_id(channel.name):
                raise ValueError(
                    f"IR color table maps {channel.name!r} to "
                    f"{ir.color_id(channel.name)}, allocator assigned "
                    f"{color}"
                )
            if isinstance(channel, CardinalChannel):
                self._card_color[channel] = color
            else:
                self._diag_color[channel] = color

            self.fabric.install_routes(color, *ir.route_table(color))

    # ------------------------------------------------------------------ #
    # Memory (Sec. 5.1)
    # ------------------------------------------------------------------ #
    def _setup_memory(self) -> None:
        """One memory map for the whole PE rectangle (Sec. 5.1).

        The layout is planned once, on a probe scratchpad, and installed
        on every program PE over one PE-major block; static data is
        written a column of the block at a time.  Per PE only the views
        are bound and the per-PE facts recorded.
        """
        mesh = self.mesh
        w, h = mesh.nx, mesh.ny
        probe = Scratchpad(self.pe_memory_bytes, reserved=self.pe_memory_reserved)
        PEColumnLayout.build(
            probe, mesh.nz, dtype=self.dtype, reuse_buffers=self.reuse_buffers
        )
        program_pes = list(self.program_pes())
        columns = self.fabric.install_memory(
            probe.plan(), [pe.coord for _x, _y, pe in program_pes]
        )
        # block row i is the PE of logical cell (i % w, i // w): a
        # (nz, ny, nx) field becomes its rows by flattening (y, x)
        columns["z"][:] = mesh.elevation.reshape(mesh.nz, -1).T
        trans_fields = padded_trans_fields(mesh, self.trans, self.dtype)
        for conn, name in TRANS_NAMES.items():
            columns[name][:] = trans_fields[conn].reshape(mesh.nz, -1).T

        def step1_senders(channel) -> set:
            if self.ir is not None:
                return self.ir.injector_coords(channel.name)
            return {
                pe.coord
                for x, y, pe in program_pes
                if is_step1_sender((x, y), channel, w, h)
            }

        senders = [(ch, step1_senders(ch)) for ch in CARDINAL_CHANNELS]
        names = list(columns)
        for (x, y, pe), *arrays in zip(program_pes, *columns.values()):
            layout = PEColumnLayout.bind(
                dict(zip(names, arrays)), reuse_buffers=self.reuse_buffers
            )
            state = pe.state
            state["logical"] = (x, y)
            state["layout"] = layout
            state["expected"] = self._expected_messages(x, y)
            # per-halo kernel arguments resolved once: the receive task
            # runs per message and every dict/method hop shows up there
            state["halo_args"] = layout.halo_args()
            state["step1_channels"] = [
                ch for ch, coords in senders if pe.coord in coords
            ]

    def _expected_messages(self, x: int, y: int) -> int:
        """Data messages the PE at *logical* ``(x, y)`` receives per
        application: one per in-bounds X-Y neighbour (Sec. 5.2 a-b)."""
        nx, ny = self.mesh.nx, self.mesh.ny
        count = 0
        for dx, dy in _XY_OFFSETS:
            if 0 <= x + dx < nx and 0 <= y + dy < ny:
                count += 1
        return count

    # ------------------------------------------------------------------ #
    # Routing (Sec. 5.2, Figs. 5-6)
    # ------------------------------------------------------------------ #
    def _setup_routing(self) -> None:
        if self.ir is not None:
            self._setup_routing_from_ir()
            return
        # switch positions are a function of the *logical* coordinate —
        # bypassed columns are latency-transparent wires, so a remapped
        # router behaves exactly like the logical router it hosts
        w, h = self.mesh.nx, self.mesh.ny
        remap = self.remap

        def logical_of(coord):
            if remap is None:
                return coord
            return remap.logical(coord)

        for channel in CARDINAL_CHANNELS:
            color = self.colors.allocate(channel.name)
            self._card_color[channel] = color

            def positions_for(coord, _ch=channel):
                lcoord = logical_of(coord)
                if lcoord is None:
                    return None
                positions, _ = switch_positions_for(lcoord, _ch, w, h)
                return positions

            def initial_for(coord, _ch=channel):
                _, initial = switch_positions_for(logical_of(coord), _ch, w, h)
                return initial

            self.fabric.configure_color(
                color, positions_for, initial_for=initial_for
            )
        for channel in DIAGONAL_CHANNELS:
            color = self.colors.allocate(channel.name)
            self._diag_color[channel] = color
            position = static_position(channel)
            self.fabric.configure_color(
                color,
                lambda coord, _p=position: (
                    [_p] if logical_of(coord) is not None else None
                ),
            )

    # ------------------------------------------------------------------ #
    # Tasks
    # ------------------------------------------------------------------ #
    def _setup_tasks(self) -> None:
        for channel in CARDINAL_CHANNELS:
            color = self._card_color[channel]

            def on_data(rt, pe, msg, _conn=channel.delivers):
                self._receive_neighbour(pe, msg, _conn)

            def on_ctrl(rt, pe, msg, _ch=channel):
                self._maybe_send(rt, pe, _ch)

            self.fabric.bind_all(color, on_data)
            self.fabric.bind_all(color, on_ctrl, control=True)
        for channel in DIAGONAL_CHANNELS:
            color = self._diag_color[channel]

            def on_data(rt, pe, msg, _conn=channel.delivers):
                self._receive_neighbour(pe, msg, _conn)

            self.fabric.bind_all(color, on_data)

    def _receive_neighbour(
        self, pe: ProcessingElement, msg, conn: Connection
    ) -> None:
        """Drain a neighbour's (p, rho) train and compute its partial flux.

        The FMOV from the fabric queue into the receive window is the 16
        FMOV / 16 fabric loads per cell of Table 4 (2 words per cell per
        neighbour, 8 neighbours).
        """
        state = pe.state
        layout = state["layout"]
        # (recv_flat, p_L, rho_L, trans) resolved once at setup
        recv_flat, p_l, rho_l, trans_col = state["halo_args"][conn]
        pe.dsd.fmovs(recv_flat, msg.payload, from_fabric=True)
        state["received"] = state.get("received", 0) + 1
        if not self.compute_fluxes:
            return
        if self.overlap_compute:
            compute_face_flux_column(
                pe.dsd,
                layout.scratch,
                layout.pressure,
                p_l,
                layout.elevation,
                layout.elevation,  # X-Y neighbours share the elevation column
                layout.density,
                rho_l,
                trans_col,
                layout.residual,
                gravity=self._gravity,
                inv_viscosity=self._inv_viscosity,
            )
        else:
            state.setdefault("pending_halos", []).append(conn)
            if state["received"] == state["expected"]:
                for pending in state["pending_halos"]:
                    self._neighbour_flux(pe, layout, pending)
                state["pending_halos"] = []

    def _neighbour_flux(self, pe: ProcessingElement, layout, conn: Connection) -> None:
        """The partial flux for one received halo."""
        _, p_l, rho_l, trans_col = pe.state["halo_args"][conn]
        compute_face_flux_column(
            pe.dsd,
            layout.scratch,
            layout.pressure,
            p_l,
            layout.elevation,
            layout.elevation,  # X-Y neighbours share the elevation column
            layout.density,
            rho_l,
            trans_col,
            layout.residual,
            gravity=self._gravity,
            inv_viscosity=self._inv_viscosity,
        )

    def _maybe_send(
        self, rt: EventRuntime, pe: ProcessingElement, channel: CardinalChannel
    ) -> None:
        """Transmit this PE's column on *channel* once per application."""
        color = self._card_color[channel]
        sent = pe.state["sent"]  # created by begin_application
        if color in sent:
            return
        sent.add(color)
        layout = pe.state["layout"]
        payload = layout.send_train_flat(pe.dsd)
        at = rt.pe_send_time(pe)
        rt.inject(pe.coord, color, payload, at=at)
        rt.inject(pe.coord, color, kind=KIND_CONTROL, at=at)

    # ------------------------------------------------------------------ #
    # Per-application driver hooks
    # ------------------------------------------------------------------ #
    def load_pressure(self, pressure: np.ndarray) -> None:
        """Host memcpy of a new pressure field into PE memories.

        Not part of device time (the paper reports device-only timing,
        Sec. 7.2).
        """
        self.mesh.validate_field(pressure, name="pressure")
        for x, y, pe in self.program_pes():
            layout = pe.state["layout"]
            layout.pressure[:] = pressure[:, y, x]

    def begin_application(self, rt: EventRuntime) -> None:
        """Schedule one application of Algorithm 1 on runtime *rt*.

        Every PE zeroes its residual, evaluates its density column
        (Eq. 5), computes the two vertical (in-memory) flux directions,
        then starts communicating: all diagonal flows plus the step-1
        cardinal senders.  Step-2 senders are triggered by the control
        wavelets of the switch protocol.
        """
        for _x, _y, pe in self.program_pes():
            pe.state["sent"] = set()
            pe.state["received"] = 0
            rt.schedule(0.0, self._start_pe, rt, pe)

    def _start_pe(self, rt: EventRuntime, pe: ProcessingElement) -> None:
        layout = pe.state["layout"]
        start = max(rt.now, pe.busy_until)
        before = pe.dsd.cycles
        pe.exec_start = start
        pe.cycles_at_start = before

        layout.residual.fill(0.0)
        evaluate_density_column(
            pe.dsd,
            layout.pressure,
            layout.density,
            compressibility=self.fluid.compressibility,
            reference_density=self.fluid.reference_density,
            reference_pressure=self.fluid.reference_pressure,
        )
        if self.compute_fluxes:
            self._vertical_fluxes(pe, layout)

        # diagonal flows: every PE is a source (Fig. 5b, step 1.b)
        at = rt.pe_send_time(pe)
        payload = layout.send_train_flat(pe.dsd)
        for channel in DIAGONAL_CHANNELS:
            rt.inject(pe.coord, self._diag_color[channel], payload, at=at)
        # cardinal step-1 senders (Fig. 6b, step 1; resolved at setup)
        for channel in pe.state["step1_channels"]:
            self._maybe_send(rt, pe, channel)
        pe.busy_until = start + (pe.dsd.cycles - before)

    def _vertical_fluxes(self, pe: ProcessingElement, layout) -> None:
        """UP and DOWN fluxes: same-PE memory, no fabric traffic (Sec. 5.2c)."""
        nz = layout.nz
        if nz < 2:
            return
        p, rho, z = layout.pressure, layout.density, layout.elevation
        compute_face_flux_column(
            pe.dsd,
            layout.scratch,
            p[: nz - 1],
            p[1:],
            z[: nz - 1],
            z[1:],
            rho[: nz - 1],
            rho[1:],
            layout.trans[Connection.UP][: nz - 1],
            layout.residual[: nz - 1],
            gravity=self._gravity,
            inv_viscosity=self._inv_viscosity,
        )
        compute_face_flux_column(
            pe.dsd,
            layout.scratch,
            p[1:],
            p[: nz - 1],
            z[1:],
            z[: nz - 1],
            rho[1:],
            rho[: nz - 1],
            layout.trans[Connection.DOWN][1:],
            layout.residual[1:],
            gravity=self._gravity,
            inv_viscosity=self._inv_viscosity,
        )

    # ------------------------------------------------------------------ #
    def gather_residual(self, out: np.ndarray | None = None) -> np.ndarray:
        """Collect every PE's residual column into a (nz, ny, nx) field."""
        if out is None:
            out = np.zeros(self.mesh.shape_zyx, dtype=self.dtype)
        else:
            self.mesh.validate_field(out, name="out")
        for x, y, pe in self.program_pes():
            out[:, y, x] = pe.state["layout"].residual
        return out

    def verify_deliveries(self) -> None:
        """Assert every PE received exactly one message per X-Y neighbour.

        Raises
        ------
        RuntimeError
            On any lost or duplicated delivery (protocol bug).
        """
        for _x, _y, pe in self.program_pes():
            got, want = pe.state.get("received", 0), pe.state["expected"]
            if got != want:
                raise RuntimeError(
                    f"PE {pe.coord}: received {got} neighbour columns, "
                    f"expected {want}"
                )
