"""Builds the flux program: colors, routing, tasks, memory.

This module translates the paper's Sec. 5 into an executable fabric
configuration:

* configures the eight routable colors (4 cardinal channels with switch
  positions, 4 diagonal channels with static two-hop routes, Sec. 5.2)
  through the shared :class:`~repro.dataflow.exchange.ColumnExchange`;
* builds every PE's memory layout (Sec. 5.1) over one PE-major block
  and fills the static data (elevation column, 10 transmissibility
  columns) a block column at a time;
* supplies the exchange's physics and round hooks, which read a PE's
  rows of the block and of the exchange's tables by ``pe.row``.

Receive-compute overlap ("the corresponding flux computation will occur
immediately in an asynchronous fashion", Sec. 5.2.1) is modelled in the
**cycle booking**: a receive task adds the cycles of its FMOV and its
partial flux on arrival (or, without overlap, of every partial flux at
the last arrival), so the timeline is per event.  No booking depends on
data, so everything else runs once per round over the PE-major block
(DESIGN.md §8 item 7): density and the UP/DOWN fluxes when the round
begins; after the drain, the receive tasks' Table-4 counters, the move
of each window's last train into it, and one face-flux call over every
logged halo, folded into each PE's residual in that PE's arrival order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core import constants
from repro.core.fluid import FluidProperties
from repro.core.kernels import FluxScratch, face_flux
from repro.core.mesh import CartesianMesh3D
from repro.core.stencil import XY_CONNECTIONS, Connection
from repro.core.transmissibility import Transmissibility, padded_trans_fields
from repro.dataflow.exchange import ColumnExchange
from repro.dataflow.halos import TRANS_NAMES, bind_trains, plan_pe_memory
from repro.dataflow.mapping import SpareColumnRemap
from repro.obs.spans import span
from repro.wse.color import ColorAllocator
from repro.wse.dsd import DENSITY_EXP_CYCLES_PER_ELEMENT
from repro.wse.fabric import Fabric
from repro.wse.memory import WSE2_PE_MEMORY_BYTES, Scratchpad
from repro.wse.pe import ProcessingElement

__all__ = ["FluxProgram"]

#: X-Y slots per PE: halo keys are ``_SLOTS * block row + slot``.
_SLOTS = len(XY_CONNECTIONS)


def _side_by_side(columns: list[np.ndarray]) -> np.ndarray:
    """One read-only ``(n_pes, len(columns), nz)`` view of block columns
    that follow each other in every block row."""
    first = columns[0]
    rows, nz = first.shape
    row_stride, step = first.strides
    start = first.__array_interface__["data"][0]
    for i, column in enumerate(columns):
        if column.__array_interface__["data"][0] != start + i * nz * step:
            raise ValueError("the columns are not adjacent in the block row")
    return np.lib.stride_tricks.as_strided(
        first, (rows, len(columns), nz), (row_stride, nz * step, step),
        writeable=False,
    )


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
        partial flux is booked immediately on arrival, hiding compute
        behind the remaining transfers.  When False, arrivals are only
        drained into per-neighbour buffers and the PE's partial fluxes
        (one per X-Y neighbour: 3 in a corner, 5 on an edge, 8 inside)
        are booked after the last arrival — the no-overlap ablation.
        Requires ``reuse_buffers=False`` (deferred compute needs every
        halo live).  Either way the arithmetic runs once per round
        (module docstring); the option moves cycles, not bits.
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
    #: This round's X-Y halos in delivery order, ``(halo key, payload)``
    #: with key ``8 * block row + X-Y slot``; cleared when a round begins
    #: and read by :meth:`_end_round` (the windows, the X-Y pass).
    round_log: list = field(init=False, default_factory=list)

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
        # gravity pre-cast to the PE dtype: the ufuncs cast it per call
        # otherwise (same bits, avoidable overhead)
        self._gravity = np.dtype(self.dtype).type(constants.GRAVITY)
        with span("program.build", cat="build",
                  fabric=f"{self.mesh.nx}x{self.mesh.ny}"):
            self.exchange = ColumnExchange(
                self.fabric,
                self.mesh.nx,
                self.mesh.ny,
                start=self._start_pe,
                payload=self._send_train,
                on_data=self._receive_neighbour,
                begin_round=self._begin_round,
                end_round=self._end_round,
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

        The map is planned once, on a probe scratchpad, and installed on
        every program PE over one PE-major block; static data is written
        a column of the block at a time.  Nothing is bound per PE: the
        hooks read a PE's trains and windows as rows of the block's
        columns, by ``pe.row``.
        """
        mesh, nz = self.mesh, self.mesh.nz
        probe = Scratchpad(self.pe_memory_bytes, reserved=self.pe_memory_reserved)
        plan_pe_memory(probe, nz, dtype=self.dtype, reuse_buffers=self.reuse_buffers)
        # ``name -> (n_pes, *shape)`` views of the PE-major block: block
        # row i is the PE of logical cell (i % nx, i // nx), so a
        # (nz, ny, nx) field is a column's transpose, reshaped
        self._columns = columns = self.fabric.install_memory(
            probe.plan(), [pe.coord for _x, _y, pe in self.exchange.pes]
        )
        columns["z"][:] = mesh.elevation.reshape(nz, -1).T
        trans_fields = padded_trans_fields(mesh, self.trans, self.dtype)
        for conn, name in TRANS_NAMES.items():
            columns[name][:] = trans_fields[conn].reshape(nz, -1).T
        p_rho = columns["p_rho"]
        self._pressure, self._density = p_rho[:, 0], p_rho[:, 1]
        # the mobility rho * (1/mu) the kernels select from: a temporary
        # of the round's arithmetic, not a PE-memory column
        self._mobility = np.empty_like(self._density)
        self._pressure_field = self._pressure.T.reshape(mesh.shape_zyx)
        self._residual_field = columns["residual"].T.reshape(mesh.shape_zyx)
        if self.compute_fluxes:
            # the X-Y columns by block row and X-Y slot: plan_pe_memory
            # puts them side by side in that order, so one view of the
            # block (static data, read per halo key)
            self._xy_trans = _side_by_side(
                [columns[TRANS_NAMES[conn]] for conn in XY_CONNECTIONS]
            )
            if nz > 1:
                # UP/DOWN run on the block's own scratch columns, cut to
                # the vertical faces, with one select buffer for good
                lower = np.s_[:, : nz - 1]
                cut = [columns[name][lower] for name in FluxScratch.NAMES]
                sel = np.empty(cut[0].shape, f"u{cut[0].itemsize}")
                self._vertical_scratch = FluxScratch(*cut, sel)
        # what the hooks read per PE, by ``pe.row``: rows of these
        self._trains, windows = bind_trains(columns, reuse_buffers=self.reuse_buffers)
        self._staging = None if self.reuse_buffers else columns["send_staging"]
        #: ``conn -> (its window rows, its X-Y slot)``
        self._halos = {c: (windows[c], slot) for slot, c in enumerate(XY_CONNECTIONS)}
        # a receive task's cycles: what ``fmovs(window, train,
        # from_fabric=True)`` and ``account_flux_column(nz)`` add
        dsd = self.exchange.pes[0][2].dsd
        per_element = (
            dsd.cycles_per_element_vector
            if dsd.vectorized
            else dsd.cycles_per_element_scalar
        )
        self._fmov_cycles = per_element * (2 * nz)
        self._flux_cycles = 14 * per_element * nz if self.compute_fluxes else 0.0

    # ------------------------------------------------------------------ #
    # The exchange's physics hooks: bookings at the simulated times
    # ------------------------------------------------------------------ #
    def _receive_neighbour(
        self, conn: Connection, rt, pe: ProcessingElement, msg
    ) -> None:
        """Count and log a neighbour's (p, rho) train and add the receive
        task's cycles: the FMOV from the fabric queue into the receive
        window (the 16 FMOV / 16 fabric loads per cell of Table 4: 2
        words per cell per neighbour, 8 neighbours) and the partial flux
        — on arrival, or every partial flux at the last arrival without
        overlap.  Cycles are all the timeline reads; :meth:`_end_round`
        books the counters, fills the window and runs the flux.
        """
        row, exchange = pe.row, self.exchange
        exchange.received[row] += 1
        self.round_log.append((_SLOTS * row + self._halos[conn][1], msg.payload))
        dsd = pe.dsd
        if self.overlap_compute:
            # (cycles + FMOV) + flux: the order the two bookings added
            dsd.cycles = dsd.cycles + self._fmov_cycles + self._flux_cycles
            return
        dsd.cycles += self._fmov_cycles
        expected = exchange.expected[row]
        if exchange.received[row] == expected:
            # deferred: every halo stayed resident until the last arrival
            for _ in range(expected):
                dsd.cycles += self._flux_cycles

    def _send_train(self, pe: ProcessingElement) -> np.ndarray:
        """The outgoing ``(p, rho)`` train: the live ``p_rho`` with buffer
        reuse; without, staged into the send buffer per send by two
        local moves, booked."""
        row = pe.row
        if self._staging is not None:
            staging, p_rho = self._staging[row], self._columns["p_rho"][row]
            pe.dsd.fmovs(staging[0], p_rho[0])
            pe.dsd.fmovs(staging[1], p_rho[1])
        return self._trains[row]

    def _start_pe(self, pe: ProcessingElement) -> None:
        """What opens an application of Algorithm 1 on one PE, booked:
        the density column (Eq. 5) and the two vertical (in-memory) flux
        directions, which :meth:`_begin_round` computed."""
        nz = self.mesh.nz
        dsd = pe.dsd
        dsd.aux("FEXP", nz, cycles_per_element=DENSITY_EXP_CYCLES_PER_ELEMENT)
        if self.compute_fluxes and nz > 1:
            dsd.account_flux_column(nz - 1)  # UP
            dsd.account_flux_column(nz - 1)  # DOWN

    # ------------------------------------------------------------------ #
    # The round hooks: the arithmetic, once per round over the block
    # ------------------------------------------------------------------ #
    def _begin_round(self) -> None:
        """Zero the residual, then density, mobility and UP/DOWN over
        every PE.

        Runs before any PE starts, so every train sent carries its
        final density.  The vertical kernels use the block's own scratch
        columns, which end as the per-PE kernel would leave them.
        """
        self.round_log.clear()
        with span("wse.flux_local"):
            columns, p, rho = self._columns, self._pressure, self._density
            columns["residual"].fill(0.0)
            fluid = self.fluid
            fluid.density(p, out=rho)
            nz = self.mesh.nz
            if not self.compute_fluxes:
                return
            lam = fluid.mobility(rho, out=self._mobility)
            if nz < 2:
                return
            z, residual = columns["z"], columns["residual"]
            lower, upper = np.s_[:, : nz - 1], np.s_[:, 1:]
            scratch = self._vertical_scratch
            # UP and DOWN (Sec. 5.2c): the same face seen from either side
            for conn, own, other in (
                (Connection.UP, lower, upper),
                (Connection.DOWN, upper, lower),
            ):
                face_flux(
                    scratch, p[own], p[other], z[own], z[other], rho[own],
                    rho[other], lam[own], lam[other],
                    columns[TRANS_NAMES[conn]][own], scratch.dp, self._gravity,
                )
                target = residual[own]
                np.add(target, scratch.dp, target)

    def _end_round(self) -> None:
        """Settle the round's receive tasks, then one face-flux call over
        the logged X-Y halos, folded into each PE's residual in that
        PE's arrival order.

        Settling books each PE's Table-4 counters for the columns it
        received and fills its receive windows with their last logged
        payloads.  The payloads are the delivered trains (a fault
        injector's corrupted copy included): a sent train is not
        written again before the round ends.  Pass ``k`` of the fold
        adds every PE's ``k``-th arrival — the per-PE ``r += F``
        sequence of the hardware.
        """
        log = self.round_log
        if not log:
            return
        with span("wse.flux_round", halos=len(log)):
            columns, nz = self._columns, self.mesh.nz
            # per column received: a window's FMOV, a partial flux
            exchange, flux = self.exchange, nz if self.compute_fluxes else 0
            for (_x, _y, pe), got in zip(exchange.pes, exchange.received):
                if got:
                    pe.dsd.book_receives(got * 2 * nz, got * flux)
            keys, payloads = zip(*log)
            keys = np.array(keys)
            rows = keys // _SLOTS
            slots = keys - _SLOTS * rows
            trains = np.concatenate(payloads).reshape(len(keys), 2 * nz)
            # each PE's arrivals in delivery order, from a stable sort
            order = np.argsort(rows, kind="stable")
            by_pe = rows[order]
            last = order[np.flatnonzero(np.append(by_pe[1:] != by_pe[:-1], True))]
            if self.reuse_buffers:
                # one window per PE, shared by the eight neighbours: it
                # holds the PE's last arrival
                windows = self._halos[XY_CONNECTIONS[0]][0]
                windows[rows[last]] = trains[last]
            else:
                # one window per PE and neighbour, filled once a round
                for windows, slot in self._halos.values():
                    here = slots == slot
                    windows[rows[here]] = trains[here]
            if not self.compute_fluxes:
                return
            trains = trains.reshape(len(keys), 2, nz)
            p_k, rho_k = self._pressure[rows], self._density[rows]
            # the neighbour's mobility from the density it delivered (a
            # fault injector's corrupted copy included)
            rho_l = trains[:, 1]
            lam_l = self.fluid.mobility(rho_l, out=np.empty_like(rho_l))
            # X-Y neighbours share the elevation column: one object
            # twice takes the kernel's collapsed branch
            z = columns["z"][rows]
            scratch = FluxScratch.empty(p_k.shape, p_k.dtype)
            flux = np.empty_like(p_k)
            face_flux(
                scratch, p_k, trains[:, 0], z, z, rho_k, rho_l,
                self._mobility[rows], lam_l, self._xy_trans[rows, slots], flux,
                self._gravity,
            )
            # each delivery's arrival rank on its PE
            rank = np.empty_like(order)
            rank[order] = np.arange(len(order)) - np.searchsorted(by_pe, by_pe)
            residual = columns["residual"]
            for k in range(int(rank.max()) + 1):
                here = np.flatnonzero(rank == k)
                residual[rows[here]] += flux[here]
            # the scratch columns end as the per-PE kernel leaves them:
            # the last arrival's dp and F (its collapsed branch)
            columns["scratch_dp"][rows[last]] = scratch.dp[last]
            columns["scratch_a"][rows[last]] = flux[last]

    # ------------------------------------------------------------------ #
    # Per-application driver hooks
    # ------------------------------------------------------------------ #
    def load_pressure(self, pressure: np.ndarray) -> None:
        """Host memcpy of a new pressure field into PE memories.

        Not part of device time (the paper reports device-only timing,
        Sec. 7.2).
        """
        self.mesh.validate_field(pressure, name="pressure")
        self._pressure_field[...] = pressure

    def gather_residual(self, out: np.ndarray | None = None) -> np.ndarray:
        """Collect every PE's residual column into a (nz, ny, nx) field."""
        residual = self._residual_field
        if out is None:
            return residual.copy()
        self.mesh.validate_field(out, name="out")
        out[...] = residual
        return out

