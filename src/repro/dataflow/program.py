"""Builds the per-PE flux program: colors, routing, tasks, memory.

This module translates the paper's Sec. 5 into an executable fabric
configuration:

* configures the eight routable colors (4 cardinal channels with switch
  positions, 4 diagonal channels with static two-hop routes, Sec. 5.2)
  through the shared :class:`~repro.dataflow.exchange.ColumnExchange`;
* builds every PE's memory layout (Sec. 5.1) and fills the static data
  (elevation column, 10 transmissibility columns);
* supplies the exchange's three physics hooks, implementing
  receive-compute overlap: a partial flux computation runs immediately
  when a neighbour's column arrives ("the corresponding flux computation
  will occur immediately in an asynchronous fashion", Sec. 5.2.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core import constants
from repro.core.fluid import FluidProperties
from repro.core.mesh import CartesianMesh3D
from repro.core.stencil import Connection
from repro.core.transmissibility import Transmissibility, padded_trans_fields
from repro.dataflow.exchange import ColumnExchange
from repro.dataflow.flux_pe import compute_face_flux_column, evaluate_density_column
from repro.dataflow.halos import TRANS_NAMES, PEColumnLayout
from repro.dataflow.mapping import SpareColumnRemap
from repro.obs.spans import span
from repro.wse.color import ColorAllocator
from repro.wse.fabric import Fabric
from repro.wse.memory import WSE2_PE_MEMORY_BYTES, Scratchpad
from repro.wse.pe import ProcessingElement

__all__ = ["FluxProgram"]


@dataclass
class FluxProgram:
    """A configured fabric ready to run applications of Algorithm 1.

    Parameters
    ----------
    mesh, fluid, trans:
        Problem definition; ``trans`` defaults to a fresh TPFA build.
        Gravity is :data:`~repro.core.constants.GRAVITY` (Eq. 3b).
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
    #: The Sec. 5.2 neighbour protocol: colors, routes, tasks, rounds.
    exchange: ColumnExchange = field(init=False)
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
        if self.ir is not None:
            self._validate_ir(self.ir)
        # scalar kernel parameters pre-cast to the PE dtype: the ufuncs
        # cast them per call otherwise (same bits, avoidable overhead)
        _scalar = np.dtype(self.dtype).type
        self._inv_viscosity = _scalar(1.0 / self.fluid.viscosity)
        self._gravity = _scalar(constants.GRAVITY)
        with span("program.build", cat="build",
                  fabric=f"{self.mesh.nx}x{self.mesh.ny}"):
            self.exchange = ColumnExchange(
                self.fabric,
                self.mesh.nx,
                self.mesh.ny,
                start=self._start_pe,
                payload=self._send_train,
                on_data=self._receive_neighbour,
                ir=self.ir,
                remap=self.remap,
            )
            self.colors = self.exchange.colors
            with span("program.memory", cat="build"):
                self._setup_memory()

    def program_pes(self):
        """The PEs running the program as ``(lx, ly, pe)`` triples, in
        *logical* row-major order (see ``ColumnExchange.pes``)."""
        return iter(self.exchange.pes)

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
        in_params = ("reuse_buffers", "overlap_compute", "compute_fluxes")
        on_fabric = ("vectorized", "pe_memory_bytes", "pe_memory_reserved")
        checks = (
            ("dtype", np.dtype(self.dtype).name, params["dtype"]),
            *((key, getattr(self, key), params[key]) for key in in_params),
            *((key, getattr(self, key), getattr(ir, key)) for key in on_fabric),
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

    # ------------------------------------------------------------------ #
    # Memory (Sec. 5.1)
    # ------------------------------------------------------------------ #
    def _setup_memory(self) -> None:
        """One memory map for the whole PE rectangle (Sec. 5.1).

        The layout is planned once, on a probe scratchpad, and installed
        on every program PE over one PE-major block; static data is
        written a column of the block at a time.  Per PE only the views
        are bound.
        """
        mesh = self.mesh
        probe = Scratchpad(self.pe_memory_bytes, reserved=self.pe_memory_reserved)
        PEColumnLayout.build(
            probe, mesh.nz, dtype=self.dtype, reuse_buffers=self.reuse_buffers
        )
        program_pes = self.exchange.pes
        columns = self.fabric.install_memory(
            probe.plan(), [pe.coord for _x, _y, pe in program_pes]
        )
        # block row i is the PE of logical cell (i % nx, i // nx): a
        # (nz, ny, nx) field becomes its rows by flattening (y, x)
        columns["z"][:] = mesh.elevation.reshape(mesh.nz, -1).T
        trans_fields = padded_trans_fields(mesh, self.trans, self.dtype)
        for conn, name in TRANS_NAMES.items():
            columns[name][:] = trans_fields[conn].reshape(mesh.nz, -1).T
        names = list(columns)
        for (_x, _y, pe), *arrays in zip(program_pes, *columns.values()):
            layout = PEColumnLayout.bind(
                dict(zip(names, arrays)), reuse_buffers=self.reuse_buffers
            )
            pe.state["layout"] = layout
            # per-halo kernel arguments resolved once: the receive task
            # runs per message and every dict/method hop shows up there
            pe.state["halo_args"] = layout.halo_args()

    # ------------------------------------------------------------------ #
    # The exchange's physics hooks
    # ------------------------------------------------------------------ #
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
        # (recv_flat, p_L, rho_L, trans) per halo, resolved once at setup
        halo_args = state["halo_args"]
        pe.dsd.fmovs(halo_args[conn][0], msg.payload, from_fabric=True)
        if not self.compute_fluxes:
            return
        if self.overlap_compute:
            ready = (conn,)
        else:
            # deferred: every halo stays resident until the last arrival
            ready = state.setdefault("pending_halos", [])
            ready.append(conn)
            if state["received"] != state["expected"]:
                return
            state["pending_halos"] = []
        for halo in ready:
            _, p_l, rho_l, trans_col = halo_args[halo]
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

    def _send_train(self, pe: ProcessingElement) -> np.ndarray:
        """The outgoing ``(p, rho)`` train (staged, and costed, per send
        without buffer reuse)."""
        return pe.state["layout"].send_train_flat(pe.dsd)

    def _start_pe(self, pe: ProcessingElement) -> None:
        """What opens an application of Algorithm 1 on one PE: zero the
        residual, evaluate the density column (Eq. 5) and compute the two
        vertical (in-memory) flux directions."""
        layout = pe.state["layout"]
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

    def _vertical_fluxes(self, pe: ProcessingElement, layout) -> None:
        """UP and DOWN fluxes: same-PE memory, no fabric traffic (Sec. 5.2c)."""
        nz = layout.nz
        if nz < 2:
            return
        p, rho, z = layout.pressure, layout.density, layout.elevation
        lower, upper = slice(0, nz - 1), slice(1, nz)
        # the same face seen from either side: each cell, then its neighbour
        for conn, own, other in (
            (Connection.UP, lower, upper),
            (Connection.DOWN, upper, lower),
        ):
            compute_face_flux_column(
                pe.dsd,
                layout.scratch,
                p[own],
                p[other],
                z[own],
                z[other],
                rho[own],
                rho[other],
                layout.trans[conn][own],
                layout.residual[own],
                gravity=self._gravity,
                inv_viscosity=self._inv_viscosity,
            )

    # ------------------------------------------------------------------ #
    # Per-application driver hooks
    # ------------------------------------------------------------------ #
    def load_pressure(self, pressure: np.ndarray) -> None:
        """Host memcpy of a new pressure field into PE memories.

        Not part of device time (the paper reports device-only timing,
        Sec. 7.2).
        """
        self.mesh.validate_field(pressure, name="pressure")
        for x, y, pe in self.exchange.pes:
            layout = pe.state["layout"]
            layout.pressure[:] = pressure[:, y, x]

    def gather_residual(self, out: np.ndarray | None = None) -> np.ndarray:
        """Collect every PE's residual column into a (nz, ny, nx) field."""
        if out is None:
            out = np.zeros(self.mesh.shape_zyx, dtype=self.dtype)
        else:
            self.mesh.validate_field(out, name="out")
        for x, y, pe in self.exchange.pes:
            out[:, y, x] = pe.state["layout"].residual
        return out
